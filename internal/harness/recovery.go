package harness

import (
	"delayfree/internal/capsule"
	"delayfree/internal/logqueue"
	"delayfree/internal/pmem"
	"delayfree/internal/pqueue"
	"delayfree/internal/proc"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
	"delayfree/internal/workload"
)

// Recovery-latency probes (experiment E6): how many memory operations
// each scheme needs to recover a process after a crash, as a function
// of structure size. The paper's claim: LogQueue recovery traverses the
// entire queue, while the transformations reload one capsule and query
// one recoverable CAS — constant, plus an O(P) announcement scan when
// using the Attiya CAS. Registered as workload.RecoveryProbes; the
// study itself (workload.RecoveryStudy) iterates whatever is
// registered.

func init() {
	workload.RegisterRecoveryProbe(workload.RecoveryProbe{
		Name: "logqueue", Steps: logQueueRecoverySteps,
	})
	workload.RegisterRecoveryProbe(workload.RecoveryProbe{
		Name: "capsule+rcas", Steps: capsuleRecoverySteps,
	})
}

// logQueueRecoverySteps seeds a LogQueue with n nodes, announces an
// enqueue that never linked (the worst but common case: the crash hit
// between announce and link) and counts the memory operations Recover
// performs.
func logQueueRecoverySteps(n uint32) uint64 {
	mem := pmem.New(pmem.Config{Words: uint64(n+1024) * pmem.WordsPerLine * 2})
	rt := proc.NewRuntime(mem, 1)
	arena := qnode.NewArena(mem, n+64)
	port := rt.Proc(0).Mem()
	q := logqueue.New(mem, port, arena, 1, 1)
	if n > 0 {
		q.Seed(port, 2, n, func(i uint32) uint64 { return uint64(i) })
	}
	lo, hi := arena.Range(0, 1, n+2)
	h := q.NewHandle(port, 0, lo, hi)
	h.AnnouncePendingEnqueue()
	before := port.Stats.Steps
	q.Recover(port, 0)
	return port.Stats.Steps - before
}

// capsuleRecoverySteps seeds a Normalized transformed queue with n
// nodes, crashes a process mid-operation of the queue's pair round
// (workload.PairStress), and counts the memory operations of the
// capsule reload plus the recoverable-CAS recovery on the first
// re-executed capsule — everything the process needs before it can
// continue.
func capsuleRecoverySteps(n uint32) uint64 {
	var q *pqueue.Normalized
	var space *rcas.Space
	spec := workload.PairStress("recovery-probe", "queue", true,
		func(r *workload.Round, _ *qnode.Arena) (capsule.RoutineID, int, capsule.RoutineID, int, func() []uint64) {
			space = rcas.NewSpace(r.Mem, 1)
			q = pqueue.NewNormalized(pqueue.Config{Mem: r.Mem, Space: space, Arena: qnode.NewArena(r.Mem, n+1024), P: 1})
			q.Register(r.Reg)
			setup := r.RT.Proc(0).Mem()
			q.Init(setup, pqueue.DummyNode+n)
			if n > 0 {
				q.Seed(setup, pqueue.DummyNode+1, n, func(i uint32) uint64 { return uint64(i) })
			}
			return q.EnqRoutine(), q.EnqEntry(), q.DeqRoutine(), q.DeqEntry(), func() []uint64 { return q.Drain(setup) }
		})
	r := &workload.Round{StressConfig: workload.StressConfig{Procs: 1, Ops: 4}, N: 1, Reg: capsule.NewRegistry()}
	r.Mem = pmem.New(pmem.Config{
		Words:   spec.Words(r) + uint64(n+1024)*pmem.WordsPerLine + capsule.ProcWords,
		Mode:    pmem.Private,
		Checked: true,
	})
	r.RT = proc.NewRuntime(r.Mem, 1)
	spec.Build(r)
	// Crash mid-run, then measure the steps from restart until the
	// machine has executed its first post-crash capsule.
	r.RT.Proc(0).ArmCrashAfter(120)
	var recoverySteps uint64
	measured := false
	r.RT.RunToCompletion(func(i int) proc.Program {
		return func(p *proc.Proc) {
			port := p.Mem()
			if p.PeekCrashed() && !measured {
				measured = true
				before := port.Stats.Steps
				r.Machine(i).LoadState() // the reload a restart performs
				recoverySteps = port.Stats.Steps - before
				// Add the recoverable-CAS recovery the first capsule
				// would run (constant for Algorithm 1).
				before = port.Stats.Steps
				space.CheckRecovery(port, q.HeadAddr(), 1, 0)
				recoverySteps += port.Stats.Steps - before
			}
			r.Machine(i).Run()
		}
	})
	return recoverySteps
}

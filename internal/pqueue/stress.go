package pqueue

import (
	"fmt"

	"delayfree/internal/history"
	"delayfree/internal/pmem"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
	"delayfree/internal/workload"
)

// Crash-stress for the queue family (the round itself is
// workload.RunRound): every transformed variant runs balanced
// enqueue-dequeue pairs through the persisted pairs driver, and the
// exactness check demands that every process completed every operation
// exactly once — the queue drains empty and the persisted sum of
// dequeued values equals the sum of enqueued values implied by each
// process's persisted enqueue counter. With a crash quota set, the pair
// batches repeat until enough crash events have been absorbed.

// stressArena budgets the node arena: live nodes are bounded by
// in-flight pairs, but a capsule repetition can leak one node per
// restart (see qnode), so budget for the crash quota; quota-less rounds
// see few restarts.
func stressArena(r *workload.Round) uint32 {
	return uint32(r.Procs)*64 + uint32(r.Crashes)*uint32(r.Procs)*2 + 8192
}

// stressSpec is the round spec of the variant built by mk. The family
// default is quota-less (Crashes 0) until the dup-delivery bug closes
// (ROADMAP open items): its retry loops can livelock a quota.
func stressSpec(name string, mk func(Config) Queue) workload.StressSpec {
	return workload.StressSpec{
		Name:   name,
		Family: "queue",
		Ops:    30,
		MinGap: func(int) int64 { return 120 },
		MaxGap: func(minGap int64) int64 {
			if minGap <= 2500 {
				return 2500
			}
			return 2 * minGap
		},
		Words: func(r *workload.Round) uint64 {
			return uint64(stressArena(r)+8)*pmem.WordsPerLine + 1<<15
		},
		Build: func(r *workload.Round) workload.Hooks {
			arena := qnode.NewArena(r.Mem, stressArena(r))
			q := mk(Config{
				Mem:     r.Mem,
				Space:   rcas.NewSpace(r.Mem, r.N),
				Arena:   arena,
				P:       r.N,
				Durable: r.Shared,
			})
			q.Register(r.Reg)
			port := r.RT.Proc(0).Mem()
			q.Init(port, DummyNode)
			pairs := uint64(r.Ops)
			drv := registerPairsDriver(r.Reg, q, pairs, r.KeepGoing, r.Rec)
			for i := 0; i < r.N; i++ {
				r.Install(i, drv, pairs)
			}
			return workload.Hooks{
				Counter: drvCounter,
				Final:   func() history.FinalState { return history.FinalState{Residue: q.Drain(port)} },
				Check: func(final history.FinalState, locals [][]uint64, rep *workload.StressReport) error {
					if n := len(final.Residue); n != 0 {
						return fmt.Errorf("queue holds %d values after balanced pairs: %x", n, final.Residue)
					}
					var totalSink, wantSink uint64
					for i, l := range locals {
						n := l[drvCounter] // persisted enqueue count
						if n < pairs {
							return fmt.Errorf("proc %d ran %d pairs, batch demands at least %d", i, n, pairs)
						}
						rep.Ops += 2 * n
						totalSink += l[drvSink]
						for k := uint64(0); k < n; k++ {
							wantSink += uint64(i)<<40 | k
						}
					}
					if totalSink != wantSink {
						return fmt.Errorf("dequeued-value sum %d, want %d (lost or duplicated operations)", totalSink, wantSink)
					}
					return nil
				},
			}
		},
	}
}

func init() {
	workload.RegisterStressSpec(stressSpec("general", func(cfg Config) Queue { return NewGeneral(cfg) }))
	workload.RegisterStressSpec(stressSpec("general-opt", func(cfg Config) Queue { cfg.Opt = true; return NewGeneral(cfg) }))
	workload.RegisterStressSpec(stressSpec("normalized", func(cfg Config) Queue { return NewNormalized(cfg) }))
	workload.RegisterStressSpec(stressSpec("normalized-opt", func(cfg Config) Queue { cfg.Opt = true; return NewNormalized(cfg) }))
	workload.RegisterHistoryChecker(workload.HistoryChecker{
		Family: "queue",
		Check:  history.CheckQueueFIFO,
	})
}

package pstack

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"delayfree/internal/capsule"
	"delayfree/internal/history"
	"delayfree/internal/pmem"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
	"delayfree/internal/workload"
)

// Packed-segment recycling under crash stress: one combiner-style
// pusher batch-pushes packed chains from a deliberately tiny-segment
// pool while popper processes pop through the stack's normal capsule
// routine — each pop retires its packed node back to the pool, so
// sealed segments drain to zero and recycle into later batches while
// crashes land everywhere (both failure models). This is the
// Retire-driven half of the pool's reclamation story; the batched
// stressers exercise the Rollback-driven half.
//
// Exactness is the full durable-linearizability audit: every push and
// pop is recorded, a crashed batch is abandoned (its pushes stay
// invoked-but-unreturned, excused as absent-or-once), and the LIFO
// checker validates the popped history against the drained residue.
// On top of that the round asserts the pool actually recycled —
// otherwise the test would silently degenerate into the
// never-recycle regime the batched stressers already cover.

const (
	recPoppers   = 3
	recBatch     = 8
	recSegNodes  = 16 // 2 batches per segment: recycling pressure
	recNseg      = 96
	recHighWater = 192             // max outstanding (pushed-not-popped) nodes
	recTag       = uint64(1) << 32 // keep values disjoint from zero/indices
)

func recVal(b uint64, j int) uint64 { return recTag | b<<8 | uint64(j) }

// Pusher locals: 1 = batches claimed (durable, claim-before-push),
// 2 = batches abandoned to crashes. Popper locals: 1 = pop index,
// 2 = set by an empty pop invoked after the pusher finished (the stack
// is drained), 3/4 = pop results, 5 = whether the pusher had finished
// when the current pop was invoked.
func runRecycleStress(t *testing.T, shared bool) {
	P := recPoppers // the pusher is process P, recorded like the poppers
	quota := 60
	target := uint64(40) // minimum batches; pushing continues until quota
	if testing.Short() {
		quota = 25
	}
	const arenaCap = 64
	var npool *qnode.PackedPool
	spec := workload.StressSpec{
		Name:    "pstack-recycle",
		Family:  "stack",
		Checker: history.CheckStackLIFO,
		MinGap:  func(n int) int64 { return int64(600 + 50*n + 25*recBatch) },
		MaxGap:  func(minGap int64) int64 { return 3 * minGap },
		Words: func(*workload.Round) uint64 {
			return uint64(arenaCap+8)*pmem.WordsPerLine + qnode.PackedWords(recSegNodes, recNseg) + 1<<15
		},
		Build: func(r *workload.Round) workload.Hooks {
			rec := r.Rec
			arena := qnode.NewArena(r.Mem, arenaCap)
			s := New(Config{
				Mem:     r.Mem,
				Space:   rcas.NewSpace(r.Mem, r.N),
				Arena:   arena,
				P:       r.N,
				Durable: true,
				Opt:     true,
			})
			s.Register(r.Reg)
			port := r.RT.Proc(0).Mem()
			s.Init(port, 1)
			npool = qnode.NewPackedPool(r.Mem, arena, recSegNodes, recNseg, r.N)
			push := BatchPusher(s, npool)

			var pusherDone atomic.Bool
			// Approximate (replay may double-count popped; pushed leaves
			// out crashed batches): pacing only.
			var pushed, popped atomic.Uint64
			vals := make([]uint64, recBatch)
			pushDrv := r.Reg.Register("recycle-pusher", false,
				func(c *capsule.Ctx) { // pc0: claim the next batch durably
					b := c.Local(1)
					if b >= target && !r.KeepGoing() {
						pusherDone.Store(true)
						c.Finish()
						return
					}
					// Volatile bump allocation makes batches far cheaper than
					// pops, so an unthrottled pusher would outrun the poppers
					// and exhaust the pool with live (un-retirable) depth. Hold
					// pushing while roughly recHighWater nodes are outstanding.
					for b*recBatch > popped.Load()+recHighWater && r.KeepGoing() {
						c.P().Step()
						runtime.Gosched()
					}
					c.SetLocal(1, b+1)
					c.Boundary(1)
				},
				func(c *capsule.Ctx) { // pc1: push the batch, or abandon a crashed one
					if c.Crashed() {
						// The batch may or may not have spliced before the crash
						// (at most once, never torn); its pushes stay invoked-
						// but-unreturned and the restart wrapper rolled back any
						// un-spliced allocations.
						c.SetLocal(2, c.Local(2)+1)
						c.Boundary(0)
						return
					}
					b := c.Local(1) - 1
					pid := c.P().ID()
					for j := range vals {
						vals[j] = recVal(b, j)
						rec.Invoke(pid, history.OpPush, b*recBatch+uint64(j), vals[j], 0, c.Mem().Stats)
					}
					push(c, vals)
					for j := range vals {
						// Recorded after the batch's PersistEpoch: durable.
						rec.Return(pid, history.OpPush, b*recBatch+uint64(j), true, 0, c.Mem().Stats)
					}
					pushed.Add(recBatch)
					c.Boundary(0)
				},
			)
			popDrv := r.Reg.Register("recycle-popper", false,
				func(c *capsule.Ctx) { // pc0: pop until the pusher is done and the stack drained
					if pusherDone.Load() && c.Local(2) > 0 && !r.KeepGoing() {
						c.Finish()
						return
					}
					// Yield while nothing pushed is left to pop. Popping an
					// empty stack instead fills the recorder with empty pops
					// whenever the pusher is descheduled. The wait still
					// steps, so crashes (and full-system crashes) reach it.
					// The pusher holds only while more than recHighWater
					// claimed nodes are unpopped, so both wait only after 24
					// batches were abandoned, and then the crashes of the
					// pusher while holding end the quota.
					for !pusherDone.Load() && pushed.Load() <= popped.Load() {
						c.P().Step()
						runtime.Gosched()
					}
					done := uint64(0)
					if pusherDone.Load() {
						done = 1
					}
					c.SetLocal(5, done)
					rec.Invoke(c.P().ID(), history.OpPop, c.Local(1), 0, 0, c.Mem().Stats)
					c.Call(s.Routine(), s.PopEntry(), 1, nil, []int{3, 4})
				},
				func(c *capsule.Ctx) { // pc1: account the pop
					i := c.Local(1)
					ok := c.Local(3) != 0
					rec.Return(c.P().ID(), history.OpPop, i, ok, c.Local(4), c.Mem().Stats)
					if ok {
						popped.Add(1)
						c.SetLocal(2, 0)
					} else {
						// Only an empty pop that began after the last push
						// shows the stack drained.
						c.SetLocal(2, c.Local(5))
					}
					c.SetLocal(1, i+1)
					c.Boundary(0)
				},
			)

			for i := 0; i < P; i++ {
				r.Install(i, popDrv)
			}
			r.Install(P, pushDrv)
			return workload.Hooks{
				Restart: func(i int) {
					if i == P { // the pusher: a restart abandons its in-flight batch
						npool.Rollback()
					}
				},
				Final: func() history.FinalState { return history.FinalState{Residue: s.Drain(port)} },
				Check: func(history.FinalState, [][]uint64, *workload.StressReport) error {
					if npool.Recycled() == 0 {
						return errors.New("pool never recycled a segment: the round did not exercise retire-driven reclamation")
					}
					return nil
				},
			}
		},
	}
	// Counter stays 0: a crashed batch is abandoned, so push IDs have
	// holes and only the family's ordering checker applies.
	rep, err := workload.RunRound(spec, workload.StressConfig{
		Procs: P + 1, Crashes: quota, Seed: 23, Shared: shared, Audit: true, ArtifactDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("shared=%v: %d batches committed, %d segments recycled, %d rollbacks, %d crashes, %d restarts",
		shared, npool.Epoch(), npool.Recycled(), npool.RolledBack(), rep.Crashes, rep.Restarts)
}

func TestPackedRecyclingUnderCrashStress(t *testing.T) {
	t.Run("private", func(t *testing.T) { runRecycleStress(t, false) })
	t.Run("shared", func(t *testing.T) { runRecycleStress(t, true) })
}

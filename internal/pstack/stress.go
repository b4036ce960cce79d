package pstack

import (
	"fmt"

	"delayfree/internal/capsule"
	"delayfree/internal/history"
	"delayfree/internal/pmem"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
	"delayfree/internal/workload"
)

// Crash-stress for the stack family (the round itself is
// workload.RunRound): P processes run balanced push-pop pairs through a
// persisted capsule driver; the scripts loop until the crash quota is
// met so every crash hits live operations. Pushed values are unique
// (pid<<40|k with k the pair index), so the exactness check is a
// conservation argument over the *persisted* driver accounting:
//
//	pushes - pops = nodes left in the stack, and
//	sum(pushed) - sum(popped) = sum(values drained from the stack),
//
// with every drained value decoding to a (pid, k) its driver actually
// persisted, exactly once. Any lost, duplicated or corrupted operation
// breaks the count or the sum.

// Driver slots: 1 = pair index (persisted progress), 2/3 = pop results,
// 4 = sum of popped values, 5 = successful pops, 6 = empty pops.
const (
	sdIdx   = 1
	sdPopOK = 2
	sdPopV  = 3
	sdSum   = 4
	sdPops  = 5
	sdEmpty = 6
)

// valueTag packs process pid's k-th pushed value.
func valueTag(pid int, k uint64) uint64 { return uint64(pid)<<40 | k }

// RegisterStressDriver registers a depth-0 routine running push-pop
// pairs with uniquely tagged values, persisting the pair index and the
// pop accounting at each boundary so a crashed process resumes exactly
// where it stopped. With keepGoing non-nil the pairs continue past
// `pairs` until a pass completes and keepGoing() reports false.
//
// With rec non-nil every operation is announced and its completion
// recorded, keyed by the pair index (push k and the pop of pair k share
// ID k). A capsule repetition re-records the same (op, id); the history
// merge collapses the repeats into one conservative interval.
func RegisterStressDriver(reg *capsule.Registry, s *Stack, pairs uint64, keepGoing func() bool, rec *history.Recorder) capsule.RoutineID {
	return reg.Register("pstack-stress-driver", false,
		func(c *capsule.Ctx) { // pc0: push the next tagged value or finish
			i := c.Local(sdIdx)
			if i >= pairs && (keepGoing == nil || !keepGoing()) {
				c.Finish()
				return
			}
			v := valueTag(c.P().ID(), i)
			rec.Invoke(c.P().ID(), history.OpPush, i, v, 0, c.Mem().Stats)
			c.Call(s.Routine(), s.PushEntry(), 1, []uint64{v}, nil)
		},
		func(c *capsule.Ctx) { // pc1: push committed; pop
			if rec.Enabled() {
				i := c.Local(sdIdx)
				rec.Return(c.P().ID(), history.OpPush, i, true, 0, c.Mem().Stats)
				rec.Invoke(c.P().ID(), history.OpPop, i, 0, 0, c.Mem().Stats)
			}
			c.Call(s.Routine(), s.PopEntry(), 2, nil, []int{sdPopOK, sdPopV})
		},
		func(c *capsule.Ctx) { // pc2: account and loop
			rec.Return(c.P().ID(), history.OpPop, c.Local(sdIdx),
				c.Local(sdPopOK) != 0, c.Local(sdPopV), c.Mem().Stats)
			if c.Local(sdPopOK) != 0 {
				c.SetLocal(sdSum, c.Local(sdSum)+c.Local(sdPopV))
				c.SetLocal(sdPops, c.Local(sdPops)+1)
			} else {
				c.SetLocal(sdEmpty, c.Local(sdEmpty)+1)
			}
			c.SetLocal(sdIdx, c.Local(sdIdx)+1)
			c.Boundary(0)
		},
	)
}

// stressArena budgets the node arena: live nodes are bounded by
// in-flight pairs, but each restart can leak one node per process —
// the popped node in its volatile spare, or the one a repeated push
// generator allocated (see qnode) — so budget for the crash quota too.
func stressArena(r *workload.Round) uint32 {
	return uint32(r.Procs)*64 + uint32(r.Crashes)*uint32(r.Procs)*2 + 4096
}

func init() {
	workload.RegisterStressSpec(workload.StressSpec{
		Name:    "pstack",
		Family:  "stack",
		Ops:     200,
		Crashes: 250,
		// The stack's capsules are O(1) (single-cell CAS generators,
		// constant recovery), so a flat floor scaled by P suffices.
		MinGap: func(n int) int64 { return 1200 + int64(n)*200 },
		MaxGap: func(minGap int64) int64 { return 4 * minGap },
		Words: func(r *workload.Round) uint64 {
			return uint64(stressArena(r)+8)*pmem.WordsPerLine + 1<<15
		},
		Build: func(r *workload.Round) workload.Hooks {
			arena := qnode.NewArena(r.Mem, stressArena(r))
			s := New(Config{
				Mem:     r.Mem,
				Space:   rcas.NewSpace(r.Mem, r.N),
				Arena:   arena,
				P:       r.N,
				Durable: r.Shared,
				Opt:     r.Shared,
			})
			s.Register(r.Reg)
			port := r.RT.Proc(0).Mem()
			s.Init(port, 0)
			pairs := uint64(r.Ops)
			drv := RegisterStressDriver(r.Reg, s, pairs, r.KeepGoing, r.Rec)
			for i := 0; i < r.N; i++ {
				r.Install(i, drv)
			}
			return workload.Hooks{
				Counter: sdIdx,
				Final:   func() history.FinalState { return history.FinalState{Residue: s.Drain(port)} },
				Check: func(final history.FinalState, locals [][]uint64, rep *workload.StressReport) error {
					// Shadow accounting from each process's persisted driver state.
					var pushCount, pushSum, popCount, popSum uint64
					for i, l := range locals {
						n := l[sdIdx]
						if n < pairs {
							return fmt.Errorf("process %d ran %d pairs, script demands at least %d", i, n, pairs)
						}
						pushCount += n
						for k := uint64(0); k < n; k++ {
							pushSum += valueTag(i, k)
						}
						popCount += l[sdPops]
						popSum += l[sdSum]
						rep.Ops += 2 * n
					}
					left := final.Residue
					if pushCount-popCount != uint64(len(left)) {
						return fmt.Errorf("stack holds %d nodes, conservation demands %d (pushes=%d pops=%d)",
							len(left), pushCount-popCount, pushCount, popCount)
					}
					var leftSum uint64
					seen := map[uint64]bool{}
					for _, v := range left {
						pid := int(v >> 40)
						k := v & (1<<40 - 1)
						if pid >= len(locals) || k >= locals[pid][sdIdx] {
							return fmt.Errorf("stack holds value %#x never durably pushed (pid=%d k=%d)", v, pid, k)
						}
						if seen[v] {
							return fmt.Errorf("stack holds value %#x twice", v)
						}
						seen[v] = true
						leftSum += v
					}
					if popSum+leftSum != pushSum {
						return fmt.Errorf("value sums: popped %d + left %d != pushed %d (lost or duplicated operations)",
							popSum, leftSum, pushSum)
					}
					return nil
				},
			}
		},
	})
	workload.RegisterHistoryChecker(workload.HistoryChecker{
		Family: "stack",
		Check:  history.CheckStackLIFO,
	})
}

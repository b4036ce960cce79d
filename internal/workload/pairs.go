package workload

import (
	"fmt"

	"delayfree/internal/capsule"
	"delayfree/internal/history"
	"delayfree/internal/pmem"
	"delayfree/internal/qnode"
)

// The unbatched round of the queue and stack families: every process
// runs balanced produce/consume pairs through one persisted capsule
// driver, looping until the crash quota is met so every crash hits live
// operations. Process pid's k-th produced value is pid<<40|k, so values
// are unique and the exactness check is conservation over the
// *persisted* driver accounting: the structure drains empty, no consume
// ever found it empty, and the consumed values sum to the produced
// ones. A pair's consume never sees an empty structure, because its own
// produce has completed and every other process has consumed at most as
// often as it produced. Any lost, duplicated or corrupted operation
// breaks the residue, the empty count or the sum.

// Pair driver slots: 1 = completed pairs (the persisted progress and the
// detectability counter), 2/3 = consume results, 4 = sum of consumed
// values, 5 = empty consumes.
const (
	pdIdx   = 1
	pdOK    = 2
	pdVal   = 3
	pdSum   = 4
	pdEmpty = 5
)

// PairStress is the round spec of a structure with one produce and one
// consume operation, fifo for a queue (checked by CheckQueueFIFO),
// otherwise a stack (CheckStackLIFO). build constructs the structure
// over arena, registers its routines in r.Reg, initializes it empty and
// returns the Call coordinates of both operations (produce takes the
// value, consume returns (ok, value)) and a drain of the recovered
// structure.
func PairStress(name, family string, fifo bool,
	build func(r *Round, arena *qnode.Arena) (produce capsule.RoutineID, produceEntry int,
		consume capsule.RoutineID, consumeEntry int, drain func() []uint64)) StressSpec {
	prodOp, consOp, checker := history.OpPush, history.OpPop, history.CheckStackLIFO
	if fifo {
		prodOp, consOp, checker = history.OpEnq, history.OpDeq, history.CheckQueueFIFO
	}
	// Live nodes are bounded by the in-flight pairs, but a capsule
	// repetition can leak one node per process and restart (see qnode),
	// so the arena budgets for the crash quota too.
	arenaNodes := func(r *Round) uint32 {
		return uint32(r.Procs)*64 + uint32(r.Crashes)*uint32(r.Procs)*2 + 8192
	}
	return StressSpec{
		Name:    name,
		Family:  family,
		Checker: checker,
		Ops:     200,
		Crashes: 250,
		// Both structures' capsules are O(1) (single-cell CAS
		// generators, constant recovery), so a flat floor scaled by the
		// process count suffices.
		MinGap: func(n int) int64 { return 1200 + int64(n)*200 },
		MaxGap: func(minGap int64) int64 { return 4 * minGap },
		Words: func(r *Round) uint64 {
			return uint64(arenaNodes(r)+8)*pmem.WordsPerLine + 1<<15
		},
		Build: func(r *Round) Hooks {
			prod, prodEntry, cons, consEntry, drain := build(r, qnode.NewArena(r.Mem, arenaNodes(r)))
			pairs, rec := uint64(r.Ops), r.Rec
			// Every operation is announced and its completion recorded,
			// keyed by the pair index: produce k and the consume of pair
			// k share ID k. A capsule repetition re-records the same (op,
			// id); the history merge collapses the repeats into one
			// conservative interval.
			drv := r.Reg.Register("pair-driver", false,
				func(c *capsule.Ctx) { // pc0: produce the next value or finish
					i := c.Local(pdIdx)
					if i >= pairs && (r.KeepGoing == nil || !r.KeepGoing()) {
						c.Finish()
						return
					}
					v := uint64(c.P().ID())<<40 | i
					rec.Invoke(c.P().ID(), prodOp, i, v, 0, c.Mem().Stats)
					c.Call(prod, prodEntry, 1, []uint64{v}, nil)
				},
				func(c *capsule.Ctx) { // pc1: produce committed; consume
					if rec.Enabled() {
						i := c.Local(pdIdx)
						rec.Return(c.P().ID(), prodOp, i, true, 0, c.Mem().Stats)
						rec.Invoke(c.P().ID(), consOp, i, 0, 0, c.Mem().Stats)
					}
					c.Call(cons, consEntry, 2, nil, []int{pdOK, pdVal})
				},
				func(c *capsule.Ctx) { // pc2: account and loop
					ok := c.Local(pdOK) != 0
					rec.Return(c.P().ID(), consOp, c.Local(pdIdx), ok, c.Local(pdVal), c.Mem().Stats)
					if ok {
						c.SetLocal(pdSum, c.Local(pdSum)+c.Local(pdVal))
					} else {
						c.SetLocal(pdEmpty, c.Local(pdEmpty)+1)
					}
					c.SetLocal(pdIdx, c.Local(pdIdx)+1)
					c.Boundary(0)
				},
			)
			for i := 0; i < r.N; i++ {
				r.Install(i, drv)
			}
			return Hooks{
				Counter: pdIdx,
				Final:   func() history.FinalState { return history.FinalState{Residue: drain()} },
				Check: func(final history.FinalState, locals [][]uint64, rep *StressReport) error {
					if n := len(final.Residue); n != 0 {
						return fmt.Errorf("%s holds %d values after balanced pairs: %x", family, n, final.Residue)
					}
					var sum, want uint64
					for i, l := range locals {
						n := l[pdIdx]
						if n < pairs {
							return fmt.Errorf("process %d ran %d pairs, round demands at least %d", i, n, pairs)
						}
						if l[pdEmpty] != 0 {
							return fmt.Errorf("process %d found the %s empty %d times after its own produce", i, family, l[pdEmpty])
						}
						rep.Ops += 2 * n
						sum += l[pdSum]
						for k := uint64(0); k < n; k++ {
							want += uint64(i)<<40 | k
						}
					}
					if sum != want {
						return fmt.Errorf("consumed-value sum %d, want %d (lost or duplicated operations)", sum, want)
					}
					return nil
				},
			}
		},
	}
}

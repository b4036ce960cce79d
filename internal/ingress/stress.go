package ingress

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"delayfree/internal/capsule"
	"delayfree/internal/history"
	"delayfree/internal/pmem"
	"delayfree/internal/qnode"
	"delayfree/internal/workload"
)

// Crash-stress scaffold shared by the batched stressers of all three
// families: the producer driver, then the round spec built around it
// (BatchedStress). The completion protocol the driver implements is the
// ingress layer's crash story made checkable:
//
//   - Every attempt gets a fresh, never-reused value and a fresh
//     completion slot, and is announced to the history recorder before
//     it is published. A producer therefore never republishes: an
//     operation it cannot prove durable is abandoned, which the
//     durable-linearizability checkers treat exactly as the criterion
//     demands — its effect may be absent or present, but present at
//     most once (the combiner applies a drained record exactly once or
//     loses it with the ring).
//   - The persisted attempt counter advances *before* any publish, one
//     boundary per window of W attempts rather than per attempt: pc0
//     durably claims a whole window, pc1 publishes it sequentially and
//     persists the return/abandon totals in one closing boundary. A
//     crash anywhere in the publish/wait span replays into a fresh
//     window — every claimed-but-unacknowledged attempt of the old one
//     is abandoned wholesale (including any whose completion was
//     observed but not yet persisted: undercounting returns is safe,
//     the operations themselves are durable). This preserves
//     exactly-once-or-never while cutting the producer's persistence
//     traffic from two boundaries per operation to two per window.
//   - Completion is observed through the per-attempt slot the combiner
//     stores into strictly after its batch's durability point, so a
//     recorded Return implies the operation is durable.
//   - A shard-epoch snapshot taken immediately before each attempt's
//     publish detects a combiner restart: the in-flight batch died
//     with its volatile ring, so the producer abandons that attempt
//     (and moves on to the next, which snapshots the new combiner's
//     epoch) instead of waiting forever. The snapshot is volatile —
//     the crashed path never consults it, because a replay abandons
//     the whole window unconditionally.
//
// Because abandoned attempts leave holes in the per-producer ID
// sequence, the committed-count watermark contract of the
// detectability cross-check does not apply; batched rounds leave
// workload.Hooks.Counter zero, which skips exactly that check.

// Producer driver slots, read back from a finished producer's
// persisted locals by the round's accounting check.
const (
	slotIdx   = 1 // persisted attempt counter (advances a window before publish)
	slotRet   = 2 // completed (returned) operations
	slotAband = 3 // attempts abandoned at a crash or combiner restart
	pdWin     = 4 // size of the claimed in-flight window
)

// Attempt describes one producer attempt: the record to publish
// (Pid/Token/Done are filled in by the driver) and the history op code
// under which it is announced (Rec.A is recorded as Arg, Rec.B as
// Arg2).
type Attempt struct {
	Rec Record
	HOp history.Op
}

// registerProducer registers the batched-stress producer routine for
// process pid: publish mk(attempt) records through the pool's one shard
// until `attempts` operations have been attempted and keepGoing (if
// non-nil) reports false, waiting out each attempt's completion and
// abandoning it on any crash or combiner restart. Attempt counters
// persist once per window of stressWindow attempts; a crash abandons
// the whole unacknowledged window. mk must be deterministic in its
// argument, and every attempt's Rec.A must be globally unique (the
// conservation checkers key on it).
func registerProducer(reg *capsule.Registry, name string, pool *Pool, pid int,
	attempts uint64, keepGoing func() bool, mk func(attempt uint64) Attempt,
	rec *history.Recorder) capsule.RoutineID {
	sh := pool.Shard(0)
	return reg.Register(name, false,
		func(c *capsule.Ctx) { // pc0: claim the next window of attempts durably
			i := c.Local(slotIdx)
			if i >= attempts && (keepGoing == nil || !keepGoing()) {
				c.Finish()
				return
			}
			w := uint64(stressWindow)
			if i < attempts && i+w > attempts && (keepGoing == nil || !keepGoing()) {
				// Land exactly on `attempts` when the workload is about
				// to stop; with keepGoing still true the full window is
				// claimed (the stressers only require a lower bound).
				w = attempts - i
			}
			c.SetLocal(pdWin, w)
			c.SetLocal(slotIdx, i+w)
			c.Boundary(1)
		},
		func(c *capsule.Ctx) { // pc1: publish the window and wait, or abandon it
			w := c.Local(pdWin)
			if c.Crashed() {
				// Replay after a crash inside this span: any attempt of
				// the window may or may not have been published, and if
				// published may or may not yet be durable. Republishing
				// could apply one twice; waiting could wait forever.
				// Abandon the whole window — the trace keeps each
				// attempt invoked-but-unreturned, excused as
				// absent-or-once.
				c.SetLocal(slotAband, c.Local(slotAband)+w)
				c.Boundary(0)
				return
			}
			first := c.Local(slotIdx) - w
			var retd, aband uint64
			for k := first; k < first+w; k++ {
				a := mk(k)
				epoch := sh.Epoch.Load()
				token := k + 1
				done := new(atomic.Uint64) // fresh slot: stale stores from older attempts land elsewhere
				r := a.Rec
				r.Pid = int32(pid)
				r.Token = token
				r.Done = done
				rec.Invoke(pid, a.HOp, k, r.A, r.B, c.Mem().Stats)
				published := true
				for !sh.Ring.TryPublish(r) {
					if sh.Epoch.Load() != epoch {
						// Combiner restarted while the ring was full;
						// nothing published yet, but the epoch snapshot
						// is stale — abandon this attempt rather than
						// guess at the new combiner's state.
						aband++
						published = false
						break
					}
					c.P().Step()
					runtime.Gosched()
				}
				if !published {
					continue
				}
				for {
					if done.Load() == token {
						// Stored strictly after the batch's durability
						// point: the operation is durable, exactly once.
						rec.Return(pid, a.HOp, k, true, 0, c.Mem().Stats)
						retd++
						break
					}
					if sh.Epoch.Load() != epoch {
						aband++
						break
					}
					c.P().Step()
					runtime.Gosched()
				}
			}
			c.SetLocal(slotRet, c.Local(slotRet)+retd)
			c.SetLocal(slotAband, c.Local(slotAband)+aband)
			c.Boundary(0)
		},
	)
}

// Geometry of every batched round: one shard, so one combiner process
// after the producers.
const (
	// StressBatchMax bounds a combiner batch; families size their
	// arenas and gap floors from it.
	StressBatchMax = 8
	stressRingCap  = 64
	// stressWindow is the producers' attempt-persistence window: one
	// durable claim and one durable return/abandon tally per 8 attempts
	// (a crash abandons the whole unacknowledged window).
	stressWindow = 8
)

// BatchedStress is a family's part of a batched-ingress crash-stress
// round: cfg.Procs producers drive operations through the MPSC ring via
// the producer driver (publish, wait for the combiner's completion
// token, abandon on any crash or combiner restart — never republish),
// while one combiner process drains batches and applies them inside
// single capsule spans. Crash injection lands inside producer
// publish/wait spans and inside live combiner batch spans in both
// failure models.
//
// Exactness is "exactly once or never" per operation: a returned
// operation is durable (its token was stored after the batch's
// durability point), an abandoned one may be present at most once. With
// an audit the recorded history must pass the family's checker; always,
// per producer, returned + abandoned <= attempted, and the family's
// Check must accept the recovered state.
type BatchedStress struct {
	Name, Family string
	Crashes      int  // default quota
	Gang         bool // see workload.StressSpec
	MinGap       func(n int) int64
	Words        func(r *workload.Round) uint64
	// Build constructs the structure in r.Mem (empty: any pre-seeded
	// value would be a phantom to the checkers).
	Build func(r *workload.Round) BatchedHooks
}

// BatchedHooks is what BatchedStress.Build returns.
type BatchedHooks struct {
	// Attempt is producer pid's attempt-th operation; deterministic,
	// with a globally unique Rec.A (see registerProducer).
	Attempt func(pid int, attempt uint64) Attempt
	// Apply and Close are the combiner's applier (RegisterGroupCombiner;
	// Close may be nil when Apply never defers).
	Apply GroupApply
	Close func(c *capsule.Ctx)
	// Rollback, if non-nil, reclaims the batch a restarting combiner
	// abandoned with its ring.
	Rollback func()
	Wave     func(port *pmem.Port) // see workload.Hooks
	Final    func() history.FinalState
	// Check judges the recovered state against each producer's
	// persisted attempt (idx) and return (ret) counts.
	Check func(final history.FinalState, idx, ret []uint64) error
}

// Spec assembles the round spec: pool, producer drivers, the combiner's
// restart/epoch/rollback program, and the producer accounting.
func (b BatchedStress) Spec() workload.StressSpec {
	return workload.StressSpec{
		Name:    b.Name,
		Family:  b.Family,
		Ops:     40,
		Crashes: b.Crashes,
		Service: 1,
		Gang:    b.Gang,
		MinGap:  b.MinGap,
		MaxGap:  func(minGap int64) int64 { return 3 * minGap },
		// Event volume is gap-driven: producers keep attempting until
		// the crash quota is met.
		Events: func(r *workload.Round) int { return r.Ops + r.Crashes*int(r.MaxGap)/15 },
		Words:  b.Words,
		Build: func(r *workload.Round) workload.Hooks {
			P, attempts := r.Procs, uint64(r.Ops)
			f := b.Build(r)
			pool := NewPool(1, stressRingCap, StressBatchMax, P)
			for i := 0; i < P; i++ {
				pid := i
				r.Install(pid, registerProducer(r.Reg, fmt.Sprintf("%s-prod%d", b.Name, pid), pool, pid,
					attempts, r.KeepGoing,
					func(attempt uint64) Attempt { return f.Attempt(pid, attempt) }, r.Rec))
			}
			r.Install(P, RegisterGroupCombiner(r.Reg, b.Name+"-comb", pool, 0, f.Apply, f.Close))
			return workload.Hooks{
				// A full-system crash loses the volatile ring wholesale
				// and advances the shard epoch, so producers abandon
				// their in-flight attempts instead of waiting on a dead
				// batch.
				Crash: pool.Reset,
				Wave:  f.Wave,
				Restart: func(i int) {
					if i == P { // a combiner restart kills its in-flight batch
						pool.Shard(0).Epoch.Add(1)
						if f.Rollback != nil {
							f.Rollback()
						}
					}
				},
				Done: func(i int) {
					if i < P {
						pool.MarkDone(i)
					}
				},
				Final: f.Final,
				Check: func(final history.FinalState, locals [][]uint64, rep *workload.StressReport) error {
					idx := make([]uint64, P)
					ret := make([]uint64, P)
					var totalRet uint64
					for i := 0; i < P; i++ {
						l := locals[i]
						idx[i], ret[i] = l[slotIdx], l[slotRet]
						if idx[i] < attempts {
							return fmt.Errorf("producer %d made %d attempts, round demands at least %d", i, idx[i], attempts)
						}
						if ret[i]+l[slotAband] > idx[i] {
							return fmt.Errorf("producer %d accounting broken: returned %d + abandoned %d > attempted %d",
								i, ret[i], l[slotAband], idx[i])
						}
						rep.Ops += ret[i]
						totalRet += ret[i]
					}
					if err := f.Check(final, idx, ret); err != nil {
						return err
					}
					if totalRet == 0 {
						return fmt.Errorf("no operation completed across %d producers (gaps too tight for progress)", P)
					}
					if rep.Stats.Batches == 0 {
						return fmt.Errorf("combiner committed no batches")
					}
					return nil
				},
			}
		},
	}
}

// Chain is a queue or stack as the chain rounds see it.
type Chain struct {
	// Drain reads the recovered structure, in its delivery order.
	Drain func() []uint64
	// Applier builds the combiner's value-batch applier over its pool
	// (pqueue.BatchEnqueuer, pstack.BatchPusher).
	Applier func(pool *qnode.PackedPool) func(c *capsule.Ctx, vals []uint64)
}

// ChainStress is the batched round of the queue and stack families,
// which differ only in the structure build constructs (empty, over
// arena), the op code producers publish under, and the residue
// direction: each producer's surviving values must appear in strictly
// increasing attempt order when fifo (one ring is FIFO per producer),
// strictly decreasing otherwise (a top-first stack drain). fifo also
// picks the history checker: CheckQueueFIFO, or CheckStackLIFO.
//
// The rounds retire nothing, and the quota keeps producers publishing
// until enough crashes land, so the combiner's packed pool must absorb
// every operation the round can complete: empirically one per ~40
// producer steps, so budget a generous MaxGap/20 per producer per crash
// event. Abandoned batches are reclaimed by Rollback on combiner restart
// (only the Commit-to-splice window leaks). The base arena holds just
// the dummy: the combiner allocates exclusively from its pool.
func ChainStress(name, family string, op uint8, hop history.Op, fifo bool,
	build func(r *workload.Round, arena *qnode.Arena) Chain) workload.StressSpec {
	const arenaCap, segNodes = 64, 1024
	segments := func(r *workload.Round) uint32 {
		perWave := uint64(r.MaxGap)*uint64(r.Procs)/20 + StressBatchMax
		totalNodes := uint64(r.Procs)*uint64(r.Ops) + uint64(r.Crashes)*perWave
		return uint32(totalNodes/segNodes) + 4
	}
	checker := history.CheckStackLIFO
	if fifo {
		checker = history.CheckQueueFIFO
	}
	spec := BatchedStress{
		Name:    name,
		Family:  family,
		Crashes: 150,
		MinGap:  func(n int) int64 { return 600 + 50*int64(n) + 25*StressBatchMax },
		Words: func(r *workload.Round) uint64 {
			return uint64(arenaCap+8)*pmem.WordsPerLine + qnode.PackedWords(segNodes, segments(r)) + 1<<15
		},
		Build: func(r *workload.Round) BatchedHooks {
			arena := qnode.NewArena(r.Mem, arenaCap)
			ch := build(r, arena)
			npool := qnode.NewPackedPool(r.Mem, arena, segNodes, segments(r), r.N)
			return BatchedHooks{
				Attempt: func(pid int, attempt uint64) Attempt {
					return Attempt{Rec: Record{Op: op, A: uint64(pid)<<40 | attempt}, HOp: hop}
				},
				Apply:    ChainApplier(StressBatchMax, ch.Applier(npool)),
				Rollback: npool.Rollback,
				Final:    func() history.FinalState { return history.FinalState{Residue: ch.Drain()} },
				Check: func(final history.FinalState, idx, ret []uint64) error {
					return checkChainResidue(final.Residue, idx, ret, fifo)
				},
			}
		},
	}.Spec()
	spec.Checker = checker
	return spec
}

// checkChainResidue: no duplicate and no alien value, per-producer
// order as ChainStress states it, and at least every returned operation
// survived.
func checkChainResidue(residue, idx, ret []uint64, fifo bool) error {
	seen := make(map[uint64]bool, len(residue))
	last := make([]uint64, len(idx))
	count := make([]uint64, len(idx))
	for _, v := range residue {
		pid, k := int(v>>40), v&(1<<40-1)
		if pid >= len(idx) || k >= idx[pid] {
			return fmt.Errorf("residue value %#x was never published (pid=%d attempt=%d)", v, pid, k)
		}
		if seen[v] {
			return fmt.Errorf("residue value %#x appears twice (operation applied twice)", v)
		}
		seen[v] = true
		if count[pid] > 0 && (k < last[pid]) == fifo {
			return fmt.Errorf("producer %d values out of order: attempt %d after %d (fifo=%v)", pid, k, last[pid], fifo)
		}
		last[pid] = k
		count[pid]++
	}
	for i := range idx {
		if count[i] < ret[i] {
			return fmt.Errorf("producer %d: %d operations returned but only %d survived (lost operations)", i, ret[i], count[i])
		}
	}
	return nil
}

package pmap

import (
	"sync"

	"delayfree/internal/capsule"
	"delayfree/internal/wcas"
)

// Batch put/delete: the ingress combiner's applier for the map family,
// riding the wcas group-commit tier.
//
// Unlike the queue and stack, the map has no single commit word — each
// put/delete is individually atomic through the writable-CAS protocol
// (a crash keeps the old value or the new one, never a torn mix). The
// group-commit tier batches everything *around* that atomicity: the
// batch's N value installs pack into line-aligned extent slots behind
// one flush pass and one install fence, the N Ptr swings run back to
// back with no flushes, and the swung Ptr words accumulate across
// batches until the window closes with one de-duplicated FlushAddrs +
// fence. A crash inside the window durably applies a *subset* of the
// deferred operations (each one all-or-nothing, per-line prefixes of
// the swing log) — which is exactly the freedom durable
// linearizability grants for unacknowledged operations, and why the
// combiner must not acknowledge producers until the window has closed
// (ingress.RegisterGroupCombiner stores no Done token of the window
// before the window's auto-close or its own call of the close hook).
//
// Capacity is pre-probed: Apply claims every put's bucket before the
// first value write, so a full table rejects the whole batch with no
// value written (a claimed key cell with value 0 is semantically
// absent). The applied-prefix story of the per-op applier is thus
// strengthened to applied-or-rejected as a unit.

// BatchOp is one operation of a map batch.
type BatchOp struct {
	Del  bool
	K, V uint64
}

// RouteKey returns the ingress shard (out of nshards) responsible for
// key k. Producers and the harness must route through this so that
// each key is applied by exactly one combiner, preserving per-key
// order; it reuses the map's own hash so the split is uniform.
func RouteKey(k uint64, nshards int) int {
	return int((mix(k) >> 48) % uint64(nshards))
}

type batchLoc struct {
	si  int
	b   uint32
	ok  bool
	del bool
	v   uint64
}

// applierState is one combiner process's group-commit state: a Batcher
// per segment, valid for one recovery epoch. It is volatile host state;
// after a full-system crash the stale epoch is detected and the
// batchers are rebuilt over the recovered array (extent claims reset).
type applierState struct {
	epoch uint64
	bs    []*wcas.Batcher
	loc   []batchLoc
	// buck caches key → packed ⟨segment, bucket⟩ for keys whose claim
	// this combiner has observed. Key cells are monotone (claimed once,
	// never released — Delete tombstones the value, Section 8), so a
	// hit can never go stale and the whole probe is elided on the hot
	// path. Volatile by construction: the cache dies with the state's
	// recovery epoch, and an unpersisted claim reverted by a crash
	// cannot survive into the rebuilt state.
	buck map[uint64]uint64
}

// BatchApplier applies map batches through the wcas group-commit tier.
// One applier serves every combiner; per-process state is keyed by pid.
// Safe for concurrent use by distinct combiner processes.
type BatchApplier struct {
	m  *Map
	mu sync.Mutex
	st map[int]*applierState
}

// NewBatchApplier builds the group-commit applier for m. The map must
// have been built with batch extents (Config.BatchCombiners > 0).
func NewBatchApplier(m *Map) *BatchApplier {
	if m.batchLines == 0 {
		panic("pmap: NewBatchApplier on a map built without BatchCombiners")
	}
	return &BatchApplier{m: m, st: map[int]*applierState{}}
}

// state returns pid's batchers, (re)building them when absent or stale
// (the map recovered since). The mutex only guards the rebuild races
// between combiners claiming extent lines; steady-state calls from the
// single owning combiner are uncontended.
func (a *BatchApplier) state(pid int) *applierState {
	a.mu.Lock()
	defer a.mu.Unlock()
	e := a.m.recEpoch
	st := a.st[pid]
	if st != nil && st.epoch == e {
		return st
	}
	st = &applierState{epoch: e, bs: make([]*wcas.Batcher, a.m.shards),
		buck: make(map[uint64]uint64)}
	for si, sg := range a.m.segs {
		st.bs[si] = sg.arr.NewBatcher(a.m.hs[pid][si], a.m.batchLines, a.m.batchWindow)
	}
	a.st[pid] = st
	return st
}

// Apply runs one batch through the three-phase group commit. It returns
// false — with no value written and no swing performed — when a put
// finds the table full; otherwise the whole batch is applied and the
// report is true. The operations' durability is deferred: call Deferred
// to learn whether a close is still owed, and Close before acknowledging
// any producer of the window. The group combiner does both inside the
// span that applied the batch, and closes unless a full next batch is
// already waiting.
func (a *BatchApplier) Apply(c *capsule.Ctx, ops []BatchOp) bool {
	if len(ops) == 0 {
		return true
	}
	pid := c.P().ID()
	m := a.m
	st := a.state(pid)
	for _, b := range st.bs {
		if b.Open() {
			// A crash-restarted combiner replaying its span: drop the
			// un-swung remainder of the interrupted batch (its swung
			// prefix is already in the window and will re-apply
			// idempotently below).
			b.Abort()
		}
	}
	// Phase 0: probe and claim every bucket before the first value
	// write. A claimed key cell with value 0 is semantically absent, so
	// rejecting here leaves no trace a reader can observe.
	st.loc = st.loc[:0]
	for _, op := range ops {
		var l batchLoc
		l.del = op.Del
		if op.Del {
			checkKV(op.K, 0)
			l.v = 0
		} else {
			checkKV(op.K, op.V)
			l.v = op.V + 1
		}
		if packed, hit := st.buck[op.K]; hit {
			l.si, l.b = unpackLoc(packed)
			l.ok = true
		} else {
			l.si, l.b, l.ok = m.find(pid, op.K, !op.Del)
			if l.ok {
				st.buck[op.K] = packLoc(l.si, l.b)
			}
		}
		if !op.Del && !l.ok {
			return false
		}
		st.loc = append(st.loc, l)
	}
	// Phases 1-2 per touched segment: packed installs + install fence +
	// swings, in batch order (later duplicates win). Phase 3 (the Ptr
	// persist) is deferred onto each batcher's window.
	for _, l := range st.loc {
		if !l.ok {
			continue // delete of an absent key
		}
		b := st.bs[l.si]
		if !b.Open() {
			b.BeginBatch()
		}
		b.BatchWrite(valObj(l.b), l.v)
	}
	for _, b := range st.bs {
		if b.Open() {
			b.CommitBatch()
		}
	}
	return true
}

// Deferred reports whether pid's window still holds swings awaiting
// their close fence (acknowledging producers before closing would claim
// durability the memory does not yet have).
func (a *BatchApplier) Deferred(pid int) bool {
	a.mu.Lock()
	st := a.st[pid]
	stale := st != nil && st.epoch != a.m.recEpoch
	a.mu.Unlock()
	if st == nil || stale {
		// Never applied, or the array recovered since (the crash itself
		// was the durability decision for that window).
		return false
	}
	for _, b := range st.bs {
		if b.Deferred() {
			return true
		}
	}
	return false
}

// Close closes pid's deferred window: one de-duplicated flush pass over
// the swung Ptr words and one fence per segment batcher that holds any.
// It may run after any batch (once per span at low load), on the
// combiner's own process.
// A stale state (the map recovered since) is NOT rebuilt — the old
// window died with the crash; rebuilding happens lazily on the next
// Apply.
//
//persist:fence
func (a *BatchApplier) Close(pid int) {
	a.mu.Lock()
	st := a.st[pid]
	if st != nil && st.epoch != a.m.recEpoch {
		st = nil
	}
	a.mu.Unlock()
	if st == nil {
		return
	}
	for _, b := range st.bs {
		if b.Open() {
			b.Abort()
		}
		if b.Deferred() {
			b.CloseWindow()
		}
	}
}

// MiniFences sums the recycle-guard early closes across pid's batchers
// (observability for tests and stats).
func (a *BatchApplier) MiniFences(pid int) uint64 {
	a.mu.Lock()
	st := a.st[pid]
	a.mu.Unlock()
	if st == nil {
		return 0
	}
	var n uint64
	for _, b := range st.bs {
		n += b.MiniFences
	}
	return n
}

package qnode

import (
	"fmt"
	"sync"
	"sync/atomic"

	"delayfree/internal/pmem"
)

// PackedPool is the batch appliers' node allocator: a per-combiner,
// line-aligned arena whose nodes are packed PackedNodesPerLine per
// cache line instead of one per line.
//
// Why packing is sound here and nowhere else: a combiner builds its
// batch chain privately — no other process reads or writes a node
// until the single splice CAS publishes the whole chain, and that CAS
// drains the pending flush epoch first, so every packed line is
// durable before any node becomes reachable. A crash before the splice
// loses arbitrary per-line prefixes of the chain's writes (the
// simulator's Section 9 same-line TSO property: a crashed line retains
// a prefix of the writes since its last persist), but those nodes are
// unreachable, so the tearing is invisible; the batch is all-or-
// nothing either way. Packing is *impermissible* for nodes written
// concurrently by multiple processes or for shared hot words (queue
// head/tail, stack top, rcas cells): co-locating independent commit
// points on one line would let one operation's crash-prefix cut drop
// another's already-decided write. See DESIGN.md, "Packed batch
// arenas".
//
// Allocation is a volatile (host-side) bump cursor over fixed-size
// segments — zero persistent-memory traffic per allocation, against
// PersistentAlloc's flush per bump. Recovery of the cursor is the
// usual bounded-leak story (memento-style pools make the same trade):
// a crashed combiner abandons its in-flight batch, and Rollback
// reclaims the un-spliced allocations when the combiner restarts;
// only a crash exactly between Commit and the splice CAS leaks that
// one batch.
//
// Recycling is per-segment refcounting with an epoch guard:
//
//   - Commit adds each batch's node count to its segments' live
//     counts; Retire (called by consumers once a node's removal is
//     durable) decrements.
//   - A segment whose live count reaches zero after it was sealed
//     (the owner moved past it) is pushed onto the free list, tagged
//     with the pool's commit epoch; the owner reuses it only after at
//     least one further batch committed (readyEpoch), so a recycled
//     segment is never re-entered in the same epoch that retired it.
//   - Retire is also where the contract lives: callers may retire a
//     node only once its unlinking is durable (in this repository,
//     dequeue/pop free nodes strictly after their PersistEpoch), and
//     recycling is only enabled where at most one combiner CASes
//     packed links (single-shard): a second combiner's in-flight tail
//     walk could hold a stale expectation into a recycled node.
type PackedPool struct {
	arena    *Arena
	base     pmem.Addr
	lo       uint32 // first node index of this pool's extent
	segNodes uint32
	nseg     uint32

	// Owner-only bump state (the combiner is the sole allocator).
	cur     uint32 // current segment
	slot    uint32 // next slot within cur
	fresh   uint32 // next never-used segment
	inBatch bool
	batch   []batchRange // slot ranges the open batch allocated

	mu       sync.Mutex
	freeSegs []uint32
	segs     []packedSeg

	// lastRet[pid] is 1 + the last node index pid retired: a capsule
	// repetition's only possible duplicate retire is the immediately
	// preceding one by the same process, so one remembered index per
	// process suppresses it exactly. (A legitimate back-to-back retire
	// of the same index — the node recycled and popped again by the
	// same process with no other retire in between — is skipped too;
	// that leaks conservatively, never double-frees.)
	lastRet []uint32

	epoch      uint64 // committed batches (owner-written, read under mu)
	recycled   uint64
	rolledBack uint64
}

// packedSeg is one segment's recycling state. live is adjusted by
// Commit (owner) and Retire (any process); the rest is guarded by the
// pool mutex.
type packedSeg struct {
	live       atomic.Int64
	sealed     bool
	reclaimed  bool
	readyEpoch uint64
}

// batchRange records that the open batch allocated slots [from, to) of
// seg; within one batch a segment's slots are contiguous.
type batchRange struct {
	seg, from, to uint32
}

// PackedNodeWords is the packed node footprint: value word + link word.
// Nodes never straddle lines because it divides pmem.WordsPerLine.
const PackedNodeWords = 2

// PackedNodesPerLine is the packing factor k.
const PackedNodesPerLine = pmem.WordsPerLine / PackedNodeWords

// rcasIndexMax is the largest node index the rcas layer's packed
// val:28|pid:8|seq:28 triples can carry; extents must stay below it.
const rcasIndexMax = 1<<28 - 1

// PackedWords returns the persistent words a pool of nseg segments of
// segNodes nodes occupies, for pmem.Memory sizing.
func PackedWords(segNodes, nseg uint32) uint64 {
	return uint64(segNodes) * uint64(nseg) * PackedNodeWords
}

// NewPackedPool allocates a pool of nseg segments of segNodes packed
// nodes each and attaches it to arena as a new extent; Addr/Val/Next
// on the arena resolve the pool's indices transparently. segNodes must
// be a multiple of PackedNodesPerLine so segments are line-aligned.
// nprocs bounds the process ids that may Retire. Setup-time only: the
// extent list is fixed before processes start.
func NewPackedPool(mem *pmem.Memory, arena *Arena, segNodes, nseg uint32, nprocs int) *PackedPool {
	if segNodes == 0 || segNodes%PackedNodesPerLine != 0 {
		panic(fmt.Sprintf("qnode: packed segment size %d not a multiple of %d", segNodes, PackedNodesPerLine))
	}
	if nseg == 0 {
		panic("qnode: packed pool needs at least one segment")
	}
	lo := arena.End()
	hi := uint64(lo) + uint64(segNodes)*uint64(nseg)
	if hi > rcasIndexMax {
		panic(fmt.Sprintf("qnode: packed extent end %d exceeds the rcas 28-bit index space", hi))
	}
	pp := &PackedPool{
		arena:    arena,
		base:     mem.AllocLines(uint64(segNodes) / PackedNodesPerLine * uint64(nseg)),
		lo:       lo,
		segNodes: segNodes,
		nseg:     nseg,
		fresh:    1, // segment 0 is current from the start
		segs:     make([]packedSeg, nseg),
		lastRet:  make([]uint32, nprocs),
	}
	arena.ext = append(arena.ext, packedExt{lo: lo, hi: uint32(hi), base: pp.base, pool: pp})
	return pp
}

// Lo returns the pool's first node index; Hi the first index past it.
func (pp *PackedPool) Lo() uint32 { return pp.lo }
func (pp *PackedPool) Hi() uint32 { return pp.lo + pp.segNodes*pp.nseg }

// BeginBatch opens a batch. The owner must close it with Commit or
// abandon it with Rollback before the next BeginBatch.
func (pp *PackedPool) BeginBatch() {
	if pp.inBatch {
		panic("qnode: packed batch already open (missing Commit/Rollback)")
	}
	pp.inBatch = true
	pp.batch = pp.batch[:0]
}

// Alloc bump-allocates the next node for the open batch. Pure host
// bookkeeping: no persistent-memory traffic, no instrumented steps.
func (pp *PackedPool) Alloc() uint32 {
	if !pp.inBatch {
		panic("qnode: packed Alloc outside a batch")
	}
	if pp.slot == pp.segNodes {
		leaving := pp.cur
		inThisBatch := len(pp.batch) > 0 && pp.batch[len(pp.batch)-1].seg == leaving
		pp.cur = pp.acquireSeg()
		pp.slot = 0
		if !inThisBatch {
			// The segment filled exactly at an earlier batch's end: its
			// live count is final, seal it now. (If this batch wrote
			// into it, sealing waits for Commit — a mid-batch seal could
			// recycle the uncommitted nodes out from under the batch.)
			pp.seal(leaving)
		}
	}
	if n := len(pp.batch) - 1; n >= 0 && pp.batch[n].seg == pp.cur && pp.batch[n].to == pp.slot {
		pp.batch[n].to++
	} else {
		pp.batch = append(pp.batch, batchRange{seg: pp.cur, from: pp.slot, to: pp.slot + 1})
	}
	i := pp.lo + pp.cur*pp.segNodes + pp.slot
	pp.slot++
	return i
}

// FlushBatch issues one flush per cache line the open batch touched
// (FlushRange over each contiguous slot run). The caller fences — in
// the appliers, implicitly through the splice CAS's epoch drain.
func (pp *PackedPool) FlushBatch(p *pmem.Port) {
	for _, r := range pp.batch {
		a := pp.base + pmem.Addr(r.seg*pp.segNodes+r.from)*PackedNodeWords
		p.FlushRange(a, uint64(r.to-r.from)*PackedNodeWords)
	}
}

// Commit closes the open batch: its nodes join their segments' live
// counts and segments the batch moved past are sealed. Call it
// immediately *before* the splice CAS — once the chain can be
// reachable it must never be rolled back, and a crash in the one-step
// window between Commit and the CAS leaks at most that batch.
func (pp *PackedPool) Commit() {
	if !pp.inBatch {
		panic("qnode: packed Commit without a batch")
	}
	pp.mu.Lock()
	for _, r := range pp.batch {
		pp.segs[r.seg].live.Add(int64(r.to - r.from))
	}
	pp.epoch++
	for _, r := range pp.batch {
		if r.seg != pp.cur {
			pp.sealLocked(r.seg)
		}
	}
	pp.mu.Unlock()
	pp.inBatch = false
}

// Rollback abandons the open batch, returning its allocations to the
// bump cursor; segments the batch had freshly acquired become free
// again. The combiner's restart wrapper calls it unconditionally
// (no-op when no batch is open). Sound only because the chain was
// never spliced: a crashed combiner abandons its batch, so nothing
// durable references the reclaimed slots, and whatever prefix of
// their writes a crash persisted is dead data the next batch
// overwrites.
func (pp *PackedPool) Rollback() {
	if !pp.inBatch {
		return
	}
	if len(pp.batch) > 0 {
		first := pp.batch[0]
		pp.cur, pp.slot = first.seg, first.from
		pp.mu.Lock()
		for _, r := range pp.batch[1:] {
			s := &pp.segs[r.seg]
			s.sealed, s.reclaimed, s.readyEpoch = false, false, 0
			pp.freeSegs = append(pp.freeSegs, r.seg)
		}
		pp.rolledBack++
		pp.mu.Unlock()
	}
	pp.inBatch = false
}

// Retire returns node i to its segment's refcount; when a sealed
// segment's count reaches zero it is recycled. Callable from any
// process, but only once the node's removal from the structure is
// durable (see the type comment). Idempotent against the one
// duplicate a capsule repetition can produce: a crashed consumer's
// replay re-retires exactly the node it retired last.
func (pp *PackedPool) Retire(pid int, i uint32) {
	if pp.lastRet[pid] == i+1 {
		return
	}
	pp.lastRet[pid] = i + 1
	seg := (i - pp.lo) / pp.segNodes
	switch n := pp.segs[seg].live.Add(-1); {
	case n == 0:
		pp.tryReclaim(seg)
	case n < 0:
		panic(fmt.Sprintf("qnode: packed segment %d retired below zero (double free)", seg))
	}
}

// acquireSeg hands the owner its next segment: a recycled one whose
// epoch guard has passed, else a fresh one.
func (pp *PackedPool) acquireSeg() uint32 {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	for k, seg := range pp.freeSegs {
		if pp.epoch >= pp.segs[seg].readyEpoch {
			pp.freeSegs = append(pp.freeSegs[:k], pp.freeSegs[k+1:]...)
			s := &pp.segs[seg]
			s.sealed, s.reclaimed = false, false
			return seg
		}
	}
	if pp.fresh < pp.nseg {
		seg := pp.fresh
		pp.fresh++
		return seg
	}
	panic("qnode: packed pool exhausted (all segments live; size the pool for the workload's peak or retire nodes)")
}

func (pp *PackedPool) seal(seg uint32) {
	pp.mu.Lock()
	pp.sealLocked(seg)
	pp.mu.Unlock()
}

func (pp *PackedPool) sealLocked(seg uint32) {
	s := &pp.segs[seg]
	s.sealed = true
	if s.live.Load() == 0 && !s.reclaimed {
		s.reclaimed = true
		s.readyEpoch = pp.epoch + 1
		pp.freeSegs = append(pp.freeSegs, seg)
		pp.recycled++
	}
}

// tryReclaim recycles seg if it is sealed, fully retired and not
// already on the free list.
func (pp *PackedPool) tryReclaim(seg uint32) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	s := &pp.segs[seg]
	if s.sealed && !s.reclaimed && s.live.Load() == 0 {
		s.reclaimed = true
		s.readyEpoch = pp.epoch + 1
		pp.freeSegs = append(pp.freeSegs, seg)
		pp.recycled++
	}
}

// Recycled returns how many times a fully-retired segment was returned
// to the free list; RolledBack how many abandoned batches Rollback
// reclaimed; Epoch the number of committed batches.
func (pp *PackedPool) Recycled() uint64 {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.recycled
}

func (pp *PackedPool) RolledBack() uint64 {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.rolledBack
}

func (pp *PackedPool) Epoch() uint64 {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.epoch
}

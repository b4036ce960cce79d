// Package qnode provides the node storage shared by every queue variant
// in the repository: a cache-line-sized node arena in simulated
// persistent memory, plus volatile and persistent per-process
// allocators.
//
// A node occupies one cache line — value word, link word, padding — so
// that flush accounting matches what a C implementation padded to 64
// bytes would pay, and so that two nodes never share a line (Section 9
// cache-line concerns). Node index 0 is reserved as the null pointer.
//
// The persistent allocator's state (bump cursor and free-list head)
// lives in persistent memory private to its process. Its operations are
// *crash-benign* rather than exactly-once: a crash while allocating or
// freeing can leak a bounded number of nodes (at most one per crash),
// which is invisible to queue semantics — the paper's transformations
// do not cover allocator recovery, and production persistent allocators
// accept the same bounded leak in exchange for not persisting an intent
// record per allocation. The stack keeps a popped node in a one-slot
// volatile spare for its process's next push instead of freeing it here;
// a crash loses the spare, which stays within the same bound of one node
// per crash per process.
package qnode

import (
	"fmt"

	"delayfree/internal/pmem"
)

// Node field offsets within a node's cache line.
const (
	// OffVal is the value word.
	OffVal = 0
	// OffNext is the link word (a tagged pointer for the volatile
	// queue, a recoverable-CAS triple for the persistent ones).
	OffNext = 1
)

// Arena is a bump-allocated pool of nodes in persistent memory. The
// bump cursor itself is volatile (Go-side): crashing between a bump and
// first use of the node can only leak, never double-allocate, because
// recovery re-seeds per-process allocators from disjoint ranges.
//
// Beyond the one-node-per-line base region, an Arena can carry packed
// extents (see PackedPool): index ranges past cap whose nodes are
// packed several per line. Addr/Val/Next resolve both uniformly, so
// traversals and rcas operations never care which layout a node uses.
type Arena struct {
	base pmem.Addr
	cap  uint32
	ext  []packedExt // attached packed extents, fixed at setup time
}

// packedExt maps the node-index range [lo, hi) onto a packed pool's
// contiguous storage: node i lives at base + (i-lo)*PackedNodeWords.
type packedExt struct {
	lo, hi uint32
	base   pmem.Addr
	pool   *PackedPool
}

// NewArena reserves capacity nodes (plus the reserved null node 0).
func NewArena(mem *pmem.Memory, capacity uint32) *Arena {
	a := &Arena{cap: capacity + 1}
	a.base = mem.AllocLines(uint64(a.cap))
	return a
}

// Cap returns the arena capacity in nodes, excluding the null node.
func (a *Arena) Cap() uint32 { return a.cap - 1 }

// Addr returns the address of node i's first word: its cache line in
// the one-node-per-line base region, its packed slot in an attached
// extent.
func (a *Arena) Addr(i uint32) pmem.Addr {
	if i >= 1 && i < a.cap {
		return a.base + pmem.Addr(i)*pmem.WordsPerLine
	}
	for k := range a.ext {
		if e := &a.ext[k]; i >= e.lo && i < e.hi {
			return e.base + pmem.Addr(i-e.lo)*PackedNodeWords
		}
	}
	panic(fmt.Sprintf("qnode: node index %d out of range (cap %d, %d packed extents)", i, a.cap, len(a.ext)))
}

// End returns the first node index past the base region and every
// attached extent: an upper bound on the nodes any chain can hold.
func (a *Arena) End() uint32 {
	end := a.cap
	for k := range a.ext {
		if a.ext[k].hi > end {
			end = a.ext[k].hi
		}
	}
	return end
}

// Retire routes a packed node back to its pool's refcounted recycler,
// reporting whether i belonged to a packed extent (false: the caller
// owns the node and should free it through its per-process allocator).
// pid is the retiring process, used to suppress the one duplicate
// retire a capsule repetition can issue (see PackedPool.Retire).
func (a *Arena) Retire(pid int, i uint32) bool {
	for k := range a.ext {
		if e := &a.ext[k]; i >= e.lo && i < e.hi {
			e.pool.Retire(pid, i)
			return true
		}
	}
	return false
}

// IsPacked reports whether node i lives in a packed extent.
func (a *Arena) IsPacked(i uint32) bool {
	for k := range a.ext {
		if i >= a.ext[k].lo && i < a.ext[k].hi {
			return true
		}
	}
	return false
}

// Val returns the address of node i's value word.
func (a *Arena) Val(i uint32) pmem.Addr { return a.Addr(i) + OffVal }

// Next returns the address of node i's link word.
func (a *Arena) Next(i uint32) pmem.Addr { return a.Addr(i) + OffNext }

// Range carves the arena into per-process slices: process pid of nprocs
// receives node indices [lo, hi). The first process's range additionally
// skips firstReserved indices (used for the queue's initial dummy node
// and pre-seeded contents).
func (a *Arena) Range(pid, nprocs int, firstReserved uint32) (lo, hi uint32) {
	per := (a.cap - 1 - firstReserved) / uint32(nprocs)
	lo = 1 + firstReserved + uint32(pid)*per
	hi = lo + per
	return
}

// VolatileAlloc is the allocator used by the non-persistent baseline
// queue: a Go-side bump cursor and free stack, private to one process.
type VolatileAlloc struct {
	arena *Arena
	next  uint32
	limit uint32
	free  []uint32
}

// NewVolatileAlloc creates an allocator over the process's arena range.
func NewVolatileAlloc(arena *Arena, lo, hi uint32) *VolatileAlloc {
	return &VolatileAlloc{arena: arena, next: lo, limit: hi}
}

// Alloc returns a free node index, preferring recycled nodes.
func (v *VolatileAlloc) Alloc() uint32 {
	if n := len(v.free); n > 0 {
		i := v.free[n-1]
		v.free = v.free[:n-1]
		return i
	}
	if v.next >= v.limit {
		panic("qnode: arena range exhausted")
	}
	i := v.next
	v.next++
	return i
}

// Free recycles a node index.
func (v *VolatileAlloc) Free(i uint32) { v.free = append(v.free, i) }

// PersistentAlloc is the allocator used by the persistent queues. Its
// bump cursor and free-list head live in persistent memory owned by one
// process; free-list links are threaded through the nodes' link words
// as packed nonce triples written by the rcas layer's InitCell
// convention (the caller supplies the packed link values — this package
// only stores them).
//
// Crash behaviour: Alloc and Free each perform a read-then-write on the
// allocator state, so a capsule repetition can re-run them with a newer
// state and strand one node. Free detects self-re-push (the only way a
// repetition could corrupt the list) and becomes a no-op.
type PersistentAlloc struct {
	arena *Arena
	state pmem.Addr // [0]=bump cursor, [1]=free head, same line
	limit uint32
}

// NewPersistentAlloc reserves the allocator's persistent state line and
// initializes it to the range [lo, hi). The initializing port must
// flush before the owning process starts.
func NewPersistentAlloc(mem *pmem.Memory, port *pmem.Port, arena *Arena, lo, hi uint32) *PersistentAlloc {
	pa := &PersistentAlloc{arena: arena, state: mem.AllocLines(1), limit: hi}
	port.Write(pa.state+0, uint64(lo))
	port.Write(pa.state+1, 0)
	port.PersistEpoch(pa.state+0, pa.state+1)
	return pa
}

// Alloc returns a node index, popping the free list if possible. freeLink
// extracts the next-free index from a node's link word (the caller's
// packed format). May leak one node if the enclosing capsule repeats.
//
// The fence after popping the free list is load-bearing: the caller is
// about to overwrite the node's link word (which holds the free-list
// link) with its own payload, and that overwrite can become durable by
// eviction at any crash. If the head advance were still unfenced, a
// crash could persist the overwrite while dropping the advance, leaving
// the durable free list threaded through the node's *new* link — which
// may reference a node that is live in the structure, whose reallocation
// corrupts it (the same inversion Free's fence prevents, mirrored).
// The bump path needs no fence: a repetition that re-reads the old
// cursor re-allocates the same node and deterministically rewrites it.
func (pa *PersistentAlloc) Alloc(p *pmem.Port, freeLink func(word uint64) uint32) uint32 {
	if h := uint32(p.Read(pa.state + 1)); h != 0 {
		nf := freeLink(p.Read(pa.arena.Next(h)))
		p.Write(pa.state+1, uint64(nf))
		p.PersistEpoch(pa.state + 1)
		return h
	}
	b := uint32(p.Read(pa.state + 0))
	if b >= pa.limit {
		panic("qnode: persistent arena range exhausted")
	}
	p.Write(pa.state+0, uint64(b)+1)
	p.Flush(pa.state)
	return b
}

// Free pushes node i onto the free list; link is the packed link word
// (pointing at the previous head) to store into the node. Repetition-
// safe: if i is already the head, the push already happened.
//
// The fence between the link write and the head update is load-bearing:
// without it a crash can persist the new head while dropping the link,
// leaving the free list pointing through the node's *previous* link
// word — which may reference a live queue node, whose reallocation
// would corrupt the queue. (The pop path needs no fence only because
// the publishing CAS of the allocated node drains the pending flush.)
func (pa *PersistentAlloc) Free(p *pmem.Port, i uint32, link uint64) {
	if uint32(p.Read(pa.state+1)) == i {
		return
	}
	p.Write(pa.arena.Next(i), link)
	p.PersistEpoch(pa.arena.Next(i))
	p.Write(pa.state+1, uint64(i))
	p.Flush(pa.state + 1)
}

// FreeHead returns the current free-list head (0 if empty); used by
// Free's callers to build the link word.
func (pa *PersistentAlloc) FreeHead(p *pmem.Port) uint32 {
	return uint32(p.Read(pa.state + 1))
}

// StateAddr exposes the allocator's persistent state address (word 0 =
// bump cursor, word 1 = free-list head) for debugging and tests.
func (pa *PersistentAlloc) StateAddr() pmem.Addr { return pa.state }

package pqueue

import (
	"delayfree/internal/capsule"
	"delayfree/internal/pmem"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
)

// Batch enqueue: the ingress combiner's applier for the queue family.
//
// Instead of one link CAS, one tail swing and one persist epoch per
// enqueue, the combiner builds the whole batch as a private node chain
// in its packed pool (volatile bump allocation, nodes packed
// qnode.PackedNodesPerLine per line), persists it with one FlushRange
// over exactly the lines the batch touched, links the chain into the
// queue with a single anonymous CAS on the last node's link, swings
// the tail once, and closes with a single PersistEpoch — two CASes,
// one fence and ~len(vals)/k effective flushes for the entire batch.
//
// Crash atomicity comes from the Port's fence-before-CAS semantics: a
// CAS drains the pending flush epoch before it executes, so by the
// time the link CAS makes the chain reachable every packed line in it
// is already durable. The link CAS itself is a single word: a crash
// before the next drain either keeps it (whole batch present) or loses
// it (whole batch absent) — the batch is never torn. Packing several
// nodes per line is sound precisely because the chain is single-writer
// and private until that CAS: a pre-splice crash keeps only a per-line
// prefix of the chain's writes (Section 9 same-line TSO), but nobody
// can reach the torn nodes, and Rollback reclaims them on restart.
//
// The splice and swing go through Space.CasAnon, not a raw CAS: the
// combiner itself needs no recovery evidence (a crashed combiner
// abandons the batch rather than resuming it), but CasAnon also
// *notifies* the previous owner of the cell it overwrites — and that
// half is load-bearing. A dequeuer's recoverable CAS on the same cell
// may have succeeded just before a crash; a raw CAS would destroy the
// cell triple that is the dequeuer's only un-announced evidence, its
// CheckRecovery would miss the applied operation, and it would re-
// execute — a duplicated delivery. ABA freedom no longer rests on
// "batched kinds never recycle": with pool recycling, link triples
// stay unambiguous through (alias, seq) freshness — the same argument
// the unbatched free list uses — plus the pool's contract that a slot
// is reused only after its node's unlinking was durable and an epoch
// guard has passed (see qnode.PackedPool).

// chainBatcher is implemented by every queue variant that embeds base;
// the harness obtains the batch applier through the Queue value it
// already holds.
type chainBatcher interface {
	batchBase() *base
}

func (b *base) batchBase() *base { return b }

// BatchEnqueuer returns the batch-enqueue applier for q over pool,
// executing on behalf of capsule processes (the combiner). Each
// combiner needs its own pool: the pool's bump state is single-writer.
// It panics if q is not a transformed variant built over the shared
// base. The combiner's restart wrapper should call pool.Rollback to
// reclaim a crashed batch's allocations.
func BatchEnqueuer(q Queue, pool *qnode.PackedPool) func(c *capsule.Ctx, vals []uint64) {
	cb, ok := q.(chainBatcher)
	if !ok {
		panic("pqueue: queue variant does not support batch enqueue")
	}
	b := cb.batchBase()
	return func(c *capsule.Ctx, vals []uint64) { b.batchEnqueue(c, pool, vals) }
}

// batchEnqueue applies vals as one chain; see the package comment
// above for the protocol. Runs inside the combiner's capsule span; the
// caller owns the span's Boundary.
func (b *base) batchEnqueue(c *capsule.Ctx, pool *qnode.PackedPool, vals []uint64) {
	if len(vals) == 0 {
		return
	}
	pid := c.P().ID()
	p := c.Mem()
	h := b.h[pid]
	alias := rcas.Alias(pid, b.P)

	// 1. Allocate and chain the nodes privately. Packed bump allocation
	// is pure host bookkeeping — no allocator flushes — and the chain's
	// persistence is one FlushRange over the touched lines; no fences.
	if cap(h.chain) < len(vals) {
		h.chain = make([]uint32, len(vals))
	}
	ns := h.chain[:len(vals)]
	pool.BeginBatch()
	for i := range vals {
		ns[i] = pool.Alloc()
	}
	for i, n := range ns {
		p.Write(b.Arena.Val(n), vals[i])
		next := uint64(0)
		if i+1 < len(ns) {
			next = uint64(ns[i+1])
		}
		rcas.InitCell(p, b.link(n), next, alias, b.anonSeq(c))
	}
	pool.FlushBatch(p)
	first, last := ns[0], ns[len(ns)-1]

	// The batch joins its segments' live counts before the splice: once
	// the chain can be reachable it must never roll back. A crash in
	// the window between here and the CAS leaks at most this batch.
	pool.Commit()

	// 2. Link the chain with the generators' Michael–Scott step: read
	// the tail and its link, retry if the tail moved in between (see
	// moved), help a lagging tail forward by one link, or CAS the chain
	// onto the tail's null link. The CAS drains the pending epoch first,
	// so the chain is durable before it becomes reachable.
	var t uint64
	var linkAddr pmem.Addr
	for {
		t = b.Space.ReadFull(p, b.tail)
		linkAddr = b.link(uint32(rcas.Val(t)))
		nx := b.Space.ReadFull(p, linkAddr)
		if b.moved(p, b.tail, t) {
			continue
		}
		if rcas.Val(nx) != 0 {
			if b.Durable {
				p.Flush(linkAddr)
				b.maybeFence(p)
			}
			b.Space.CasAnon(p, b.tail, t, rcas.Val(nx), b.anonSeq(c), pid)
			continue
		}
		if b.Space.CasAnon(p, linkAddr, nx, uint64(first), b.anonSeq(c), pid) {
			break
		}
	}

	// 3. Publish the link and swing the tail from the validated t. The
	// swing CAS drains the link's flush — the tail never points at an
	// unflushed link — and a lost swing means another combiner or
	// dequeuer already moved the tail past t, so it is never moved back.
	p.Flush(linkAddr)
	b.Space.CasAnon(p, b.tail, t, uint64(last), b.anonSeq(c), pid)

	// 4. The batch's durability point: one fence closes the epoch.
	p.PersistEpoch(b.tail)
}

package pstack

import (
	"delayfree/internal/capsule"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
)

// Batch push: the ingress combiner's applier for the stack family.
//
// The combiner builds the whole batch as a private chain in its packed
// pool (vals[0] at the bottom, vals[len-1] the new top; nodes packed
// qnode.PackedNodesPerLine per line, persisted by one FlushRange over
// exactly the touched lines), links the bottom node to the observed
// top, and swings the top cell with a single anonymous CAS — the CAS
// drains the pending flush epoch first, so every packed line is
// durable before any node becomes reachable, and the single-word top
// swing makes the batch atomic: a crash keeps either the old top
// (batch absent; Rollback reclaims the slots on restart) or the new
// one (batch present), never a torn prefix. One PersistEpoch on the
// top cell closes the batch. Packing is sound only because the chain
// is single-writer and unreachable until the swing: a pre-splice crash
// keeps per-line prefixes of nodes nobody can see (Section 9 same-line
// TSO).
//
// As with the queue's batch applier, the swing goes through
// Space.CasAnon: the combiner itself needs no recovery evidence (a
// crashed combiner abandons the batch), but CasAnon notifies the
// previous owner of the top cell — without that, a raw CAS would
// destroy the un-announced evidence of a popper's just-applied
// recoverable CAS, its CheckRecovery would miss the pop, and the
// popper would pop again, losing a value. ABA freedom rests on
// (alias, seq) freshness of the link triples plus the pool's
// retire/epoch recycling contract — not on "batched kinds never
// recycle", which no longer holds.

// BatchPusher returns the batch-push applier for s over pool. Each
// combiner needs its own pool (single-writer bump state); the restart
// wrapper should call pool.Rollback to reclaim a crashed batch.
func BatchPusher(s *Stack, pool *qnode.PackedPool) func(c *capsule.Ctx, vals []uint64) {
	return func(c *capsule.Ctx, vals []uint64) { s.batchPush(c, pool, vals) }
}

func (s *Stack) batchPush(c *capsule.Ctx, pool *qnode.PackedPool, vals []uint64) {
	if len(vals) == 0 {
		return
	}
	pid := c.P().ID()
	p := c.Mem()
	alias := rcas.Alias(pid, s.nproc)

	if cap(s.chain[pid]) < len(vals) {
		s.chain[pid] = make([]uint32, len(vals))
	}
	ns := s.chain[pid][:len(vals)]
	pool.BeginBatch()
	for i := range vals {
		ns[i] = pool.Alloc()
	}
	s.seqCtr[pid]++
	seq := rcas.AnonTag(c.Seq(), s.seqCtr[pid])
	// Intra-chain links and values; the bottom link is written per
	// swing attempt below.
	for i, n := range ns {
		p.Write(s.arena.Val(n), vals[i])
		if i > 0 {
			rcas.InitCell(p, s.link(n), uint64(ns[i-1]), alias, seq)
		}
	}
	pool.FlushBatch(p)
	bottom, top := ns[0], ns[len(ns)-1]
	// Committed before the swing: once the chain can be reachable it
	// must never roll back (a crash between here and a successful CAS
	// leaks at most this batch).
	pool.Commit()
	for {
		old := p.Read(s.top)
		rcas.InitCell(p, s.link(bottom), rcas.Val(old), alias, seq)
		p.Flush(s.link(bottom))
		// Drains the chain's flushes before swinging: reachable implies
		// durable.
		if s.space.CasAnon(p, s.top, old, uint64(top), seq, pid) {
			break
		}
	}
	// The batch's durability point.
	p.PersistEpoch(s.top)
}

package pqueue

import (
	"delayfree/internal/capsule"
	"delayfree/internal/rcas"
)

// Normalized is the Michael–Scott queue in Timnat–Petrank normalized
// form, made persistent by the paper's Persistent Normalized Simulator
// (Section 7, Algorithm 4). Each operation is:
//
//   - CAS Generator: a parallelizable read phase that helps swing the
//     tail with *anonymous* CASes and emits the single CAS the operation
//     needs (link for enqueue, head advance for dequeue);
//   - one capsule boundary, persisting the CAS list;
//   - CAS Executor + Wrap-Up fused in one capsule: the executor CAS is
//     recoverable (checkRecovery on crash); the wrap-up's helping CASes
//     are anonymous so they never clobber the executor's recovery state;
//     if the operation must repeat, the next iteration's generator runs
//     in the same capsule and loops back to the executor boundary —
//     exactly one boundary per loop iteration, as Theorem 7.1 promises.
//
// With Config.Opt the frames are compact (Normalized-Opt).
type Normalized struct {
	*base
	enq capsule.RoutineID
	deq capsule.RoutineID
}

// NewNormalized builds the queue; call Register and Init before use.
func NewNormalized(cfg Config) *Normalized { return &Normalized{base: newBase(cfg)} }

// EnqRoutine implements Queue.
func (n *Normalized) EnqRoutine() capsule.RoutineID { return n.enq }

// DeqRoutine implements Queue.
func (n *Normalized) DeqRoutine() capsule.RoutineID { return n.deq }

// Enqueue slots.
const (
	neV  = 1 // value argument
	neN  = 2 // allocated node
	neT  = 3 // tail triple at generation time
	neNx = 4 // expected link triple (null, with nonce)
)

// Dequeue slots.
const (
	ndH   = 1 // expected head triple
	ndNx  = 2 // observed next triple
	ndVal = 3 // value read by the generator
)

// Program counters: one shared routine (stable frame header); the
// dequeue capsules follow the enqueue ones.
const (
	npEnqGen  = 0 // enqueue generator + boundary
	npEnqExec = 1 // enqueue executor + wrap-up
	npDeqGen  = 2 // dequeue generator + boundary
	npDeqExec = 3 // dequeue executor + wrap-up
)

// Register implements Queue.
func (n *Normalized) Register(reg *capsule.Registry) {
	ops := reg.Register("normalized-ops", n.Opt,
		n.enqGen, n.enqExec, n.deqGen, n.deqExec)
	n.enq, n.deq = ops, ops
}

// EnqEntry implements Queue.
func (n *Normalized) EnqEntry() int { return npEnqGen }

// DeqEntry implements Queue.
func (n *Normalized) DeqEntry() int { return npDeqGen }

// enqGenerate is the enqueue CAS generator: it helps swing the tail
// (anonymous CASes — parallelizable, safe to repeat any number of
// times) until it observes a clean tail, then persists the link-CAS
// descriptor. The tail is re-validated after its link is read (see
// moved): a recycled tail node's fresh null link would otherwise let
// the executor's CAS link our node to a node no longer in the queue.
func (n *Normalized) enqGenerate(c *capsule.Ctx) {
	p := c.Mem()
	pid := c.P().ID()
	for {
		t := n.Space.ReadFull(p, n.tail)
		nx := n.Space.ReadFull(p, n.link(uint32(rcas.Val(t))))
		if n.moved(p, n.tail, t) {
			continue
		}
		if rcas.Val(nx) != 0 {
			if n.Durable {
				p.Flush(n.link(uint32(rcas.Val(t))))
				n.maybeFence(p)
			}
			n.Space.CasAnon(p, n.tail, t, rcas.Val(nx), n.anonSeq(c), pid)
			continue
		}
		c.SetLocal(neT, t)
		c.SetLocal(neNx, nx)
		c.Boundary(npEnqExec)
		return
	}
}

func (n *Normalized) enqGen(c *capsule.Ctx) {
	node := n.alloc(c, c.Local(neV))
	c.SetLocal(neN, uint64(node))
	n.enqGenerate(c)
}

func (n *Normalized) enqExec(c *capsule.Ctx) {
	p := c.Mem()
	pid := c.P().ID()
	// Executor: the single link CAS, recoverable.
	seq := c.NextSeq()
	t := c.Local(neT)
	link := n.link(uint32(rcas.Val(t)))
	ok := false
	if c.Crashed() {
		ok = n.Space.CheckRecovery(p, link, seq, pid)
	}
	if !ok {
		ok = n.Space.Cas(p, link, c.Local(neNx), c.Local(neN), seq, pid)
	}
	// Wrap-up: on success, help swing the tail anonymously; on failure,
	// regenerate in the same capsule (one boundary per iteration).
	if ok {
		if n.Durable {
			p.Flush(link)
			n.maybeFence(p)
		}
		// Full-word compare: a tail that left t and came back to a
		// recycled t must not be swung to our node.
		if n.Space.ReadFull(p, n.tail) == t {
			n.Space.CasAnon(p, n.tail, t, c.Local(neN), n.anonSeq(c), pid)
		}
		if n.Durable {
			n.persist(p, n.tail)
		}
		c.Done()
		return
	}
	n.enqGenerate(c)
}

// deqGenerate is the dequeue CAS generator: help swing, detect empty
// (returning immediately — an empty result needs no CAS), or persist
// the head-advance descriptor together with the value read before the
// CAS (which is what makes the result recoverable). The head is
// re-validated after its link is read (see moved): a recycled head
// node's link would otherwise be taken for the queue's.
func (n *Normalized) deqGenerate(c *capsule.Ctx) {
	p := c.Mem()
	pid := c.P().ID()
	for {
		h := n.Space.ReadFull(p, n.head)
		t := n.Space.ReadFull(p, n.tail)
		nx := n.Space.ReadFull(p, n.link(uint32(rcas.Val(h))))
		if n.moved(p, n.head, h) {
			continue
		}
		if rcas.Val(h) == rcas.Val(t) {
			if rcas.Val(nx) == 0 {
				// Empty result: linearizes at the read of nx and needs no
				// CAS. DoneRO rides the read-only tier — it elides the
				// completion only when the capsule issued no persistent
				// effect (no helping CAS landed, no durable flush), in
				// which case re-executing the observation after a crash
				// is a fresh, equally valid linearization. This and the
				// stack's empty pop are the only queue-family elision
				// points: every generator boundary ahead of a recoverable
				// CAS must persist (see DESIGN.md).
				c.DoneRO(0, 0)
				return
			}
			if n.Durable {
				p.Flush(n.link(uint32(rcas.Val(t))))
				n.maybeFence(p)
			}
			n.Space.CasAnon(p, n.tail, t, rcas.Val(nx), n.anonSeq(c), pid)
			continue
		}
		v := p.Read(n.Arena.Val(uint32(rcas.Val(nx))))
		c.SetLocal(ndH, h)
		c.SetLocal(ndNx, nx)
		c.SetLocal(ndVal, v)
		c.Boundary(npDeqExec)
		return
	}
}

func (n *Normalized) deqGen(c *capsule.Ctx) { n.deqGenerate(c) }

func (n *Normalized) deqExec(c *capsule.Ctx) {
	p := c.Mem()
	pid := c.P().ID()
	seq := c.NextSeq()
	h := c.Local(ndH)
	if n.Durable {
		p.Flush(n.link(uint32(rcas.Val(h))))
		n.maybeFence(p)
	}
	ok := false
	if c.Crashed() {
		ok = n.Space.CheckRecovery(p, n.head, seq, pid)
	}
	if !ok {
		ok = n.Space.Cas(p, n.head, h, rcas.Val(c.Local(ndNx)), seq, pid)
	}
	if ok {
		if n.Durable {
			n.persist(p, n.head)
		}
		n.free(c, uint32(rcas.Val(h)), c.Local(ndNx))
		c.Done(1, c.Local(ndVal))
		return
	}
	n.deqGenerate(c)
}

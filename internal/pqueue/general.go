package pqueue

import (
	"delayfree/internal/capsule"
	"delayfree/internal/pmem"
	"delayfree/internal/rcas"
)

// General is the Michael–Scott queue transformed by the paper's
// Low-Computation-Delay Simulator (Section 6): the operation is split
// into CAS-Read capsules — each capsule performs at most one
// recoverable CAS, as its first shared operation, followed by any
// number of reads; the capsule boundary persists the arguments of the
// *next* capsule's CAS. With Config.Opt the same state machine runs
// over compact one-line frames (General-Opt).
type General struct {
	*base
	enq capsule.RoutineID
	deq capsule.RoutineID
}

// NewGeneral builds the queue; call Register and Init before use.
func NewGeneral(cfg Config) *General { return &General{base: newBase(cfg)} }

// EnqRoutine implements Queue.
func (g *General) EnqRoutine() capsule.RoutineID { return g.enq }

// DeqRoutine implements Queue.
func (g *General) DeqRoutine() capsule.RoutineID { return g.deq }

// Enqueue slots. Slot 0 is the capsule sequence number.
const (
	geV  = 1 // value argument
	geN  = 2 // allocated node index
	geT  = 3 // expected tail triple
	geNx = 4 // expected next triple (link CAS) / observed next (swing)
)

// Program counters: the enqueue and dequeue state machines share one
// routine (stable frame header across alternating operations); the
// entries are exported via EnqEntry/DeqEntry.
const (
	gePrep  = 0 // allocate + read, decide link vs swing
	geLink  = 1 // recoverable link CAS
	geSwing = 2 // helping tail swing, then re-read
	geAfter = 3 // final tail swing after our link
)

// Dequeue slots.
const (
	gdH   = 1 // expected head triple
	gdNx  = 2 // observed next triple
	gdVal = 3 // value read before the CAS (detectability)
	gdT   = 4 // tail triple for helping swing
)

// Dequeue program counters (offset past the enqueue capsules).
const (
	gdRead  = 4 // read phase, decide deq vs swing vs empty
	gdCas   = 5 // recoverable head CAS
	gdSwing = 6 // helping tail swing, then re-read
)

// Register implements Queue.
func (g *General) Register(reg *capsule.Registry) {
	ops := reg.Register("general-ops", g.Opt,
		g.enqPrep, g.enqLink, g.enqSwing, g.enqAfter,
		g.deqRead, g.deqCas, g.deqSwing)
	g.enq, g.deq = ops, ops
}

// EnqEntry implements Queue.
func (g *General) EnqEntry() int { return gePrep }

// DeqEntry implements Queue.
func (g *General) DeqEntry() int { return gdRead }

// enqReadPhase reads tail and its link and persists the decision:
// either the link CAS arguments (-> geLink) or the swing arguments
// (-> geSwing). Pure reads — legal anywhere in a CAS-Read capsule. The
// tail is re-validated after its link is read (see moved).
func (g *General) enqReadPhase(c *capsule.Ctx) {
	p := c.Mem()
	for {
		t := g.Space.ReadFull(p, g.tail)
		nx := g.Space.ReadFull(p, g.link(uint32(rcas.Val(t))))
		if g.moved(p, g.tail, t) {
			continue
		}
		c.SetLocal(geT, t)
		c.SetLocal(geNx, nx)
		if rcas.Val(nx) == 0 {
			c.Boundary(geLink)
		} else {
			c.Boundary(geSwing)
		}
		return
	}
}

func (g *General) enqPrep(c *capsule.Ctx) {
	n := g.alloc(c, c.Local(geV))
	c.SetLocal(geN, uint64(n))
	g.enqReadPhase(c)
}

func (g *General) enqLink(c *capsule.Ctx) {
	p := c.Mem()
	pid := c.P().ID()
	seq := c.NextSeq()
	t := c.Local(geT)
	nx := c.Local(geNx)
	link := g.link(uint32(rcas.Val(t)))
	ok := false
	if c.Crashed() {
		ok = g.Space.CheckRecovery(p, link, seq, pid)
	}
	if !ok {
		ok = g.Space.Cas(p, link, nx, c.Local(geN), seq, pid)
	}
	if ok {
		if g.Durable {
			g.persist(p, link)
		}
		c.Boundary(geAfter)
		return
	}
	g.enqReadPhase(c)
}

func (g *General) enqSwing(c *capsule.Ctx) {
	p := c.Mem()
	pid := c.P().ID()
	seq := c.NextSeq()
	t := c.Local(geT)
	nx := c.Local(geNx)
	if g.Durable {
		// Never let tail point at an unflushed link.
		p.Flush(g.link(uint32(rcas.Val(t))))
		g.maybeFence(p)
	}
	// Result-ignored recoverable CAS: skip only if recovery proves this
	// exact CAS already executed; re-executing a failed one is harmless.
	if !(c.Crashed() && g.Space.CheckRecovery(p, g.tail, seq, pid)) {
		g.swing(p, t, nx, seq, pid)
	}
	if g.Durable {
		g.persist(p, g.tail)
	}
	g.enqReadPhase(c)
}

// swing is the helping tail swing both swing capsules persist a decision
// for: tail from t to the node t's link held, nx, when the read phase
// ran. A full-system crash after that boundary can have dropped the link
// (its enqueuer had not persisted it yet), and the tail CAS cannot see
// that — the tail still holds t — so the link is re-read first and the
// tail swung only onto a link that is still there.
func (g *General) swing(p *pmem.Port, t, nx, seq uint64, pid int) {
	if g.Space.ReadFull(p, g.link(uint32(rcas.Val(t)))) == nx {
		g.Space.Cas(p, g.tail, t, rcas.Val(nx), seq, pid)
	}
}

func (g *General) enqAfter(c *capsule.Ctx) {
	p := c.Mem()
	pid := c.P().ID()
	seq := c.NextSeq()
	t := c.Local(geT)
	if !(c.Crashed() && g.Space.CheckRecovery(p, g.tail, seq, pid)) {
		g.Space.Cas(p, g.tail, t, c.Local(geN), seq, pid)
	}
	if g.Durable {
		g.persist(p, g.tail)
	}
	c.Done()
}

// deqReadPhase reads head/tail/next and persists the decision: empty
// (returns immediately), helping swing, or the head CAS arguments. The
// head is re-validated after its link is read (see moved).
func (g *General) deqReadPhase(c *capsule.Ctx) {
	p := c.Mem()
	for {
		h := g.Space.ReadFull(p, g.head)
		t := g.Space.ReadFull(p, g.tail)
		nx := g.Space.ReadFull(p, g.link(uint32(rcas.Val(h))))
		if g.moved(p, g.head, h) {
			continue
		}
		if rcas.Val(h) == rcas.Val(t) {
			if rcas.Val(nx) == 0 {
				// Empty; linearizes at the read of nx.
				c.Done(0, 0)
				return
			}
			c.SetLocal(gdT, t)
			c.SetLocal(gdNx, nx)
			c.Boundary(gdSwing)
			return
		}
		v := p.Read(g.Arena.Val(uint32(rcas.Val(nx))))
		c.SetLocal(gdH, h)
		c.SetLocal(gdNx, nx)
		c.SetLocal(gdVal, v)
		c.Boundary(gdCas)
		return
	}
}

func (g *General) deqRead(c *capsule.Ctx) { g.deqReadPhase(c) }

func (g *General) deqCas(c *capsule.Ctx) {
	p := c.Mem()
	pid := c.P().ID()
	seq := c.NextSeq()
	h := c.Local(gdH)
	nx := c.Local(gdNx)
	if g.Durable {
		g.flushDequeue(p, h)
	}
	ok := false
	if c.Crashed() {
		ok = g.Space.CheckRecovery(p, g.head, seq, pid)
	}
	if !ok {
		ok = g.Space.Cas(p, g.head, h, rcas.Val(nx), seq, pid)
	}
	if ok {
		if g.Durable {
			g.persist(p, g.head)
		}
		g.free(c, uint32(rcas.Val(h)), nx)
		c.Done(1, c.Local(gdVal))
		return
	}
	g.deqReadPhase(c)
}

func (g *General) deqSwing(c *capsule.Ctx) {
	p := c.Mem()
	pid := c.P().ID()
	seq := c.NextSeq()
	t := c.Local(gdT)
	nx := c.Local(gdNx)
	if g.Durable {
		p.Flush(g.link(uint32(rcas.Val(t))))
		g.maybeFence(p)
	}
	if !(c.Crashed() && g.Space.CheckRecovery(p, g.tail, seq, pid)) {
		g.swing(p, t, nx, seq, pid)
	}
	if g.Durable {
		g.persist(p, g.tail)
	}
	g.deqReadPhase(c)
}

// Package pstack applies the Persistent Normalized Simulator
// (Section 7) to a second data structure — the Treiber stack — as
// evidence of the transformation's generality: Theorem 7.1 covers any
// normalized lock-free structure, not just the queue of the paper's
// evaluation.
//
// The Treiber stack in normalized form is particularly simple: both
// operations' CAS generators emit a single CAS on the top-of-stack
// cell, and the wrap-ups are trivial (no helping). Each operation is
// therefore one generator capsule plus one executor capsule — one
// persisted boundary per attempt, exactly as in the queue.
//
// The stack's own persists rest on two facts. A node is durable before
// it is reachable: the push executor writes and flushes the private
// node, and the locked CAS that publishes it drains that flush first.
// And every persisted capsule commit fences any unfenced flush before
// its commit word, so the flush the recoverable CAS leaves on the top
// cell needs no fence of its own. Reads of a reachable node therefore
// need no flush, and a popped node is kept as a volatile per-process
// spare for the next push instead of going through the persistent free
// list (see alloc and retire).
package pstack

import (
	"delayfree/internal/capsule"
	"delayfree/internal/pmem"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
)

// Stack is the transformed persistent Treiber stack.
type Stack struct {
	mem     *pmem.Memory
	space   rcas.CasSpace
	arena   *qnode.Arena
	nproc   int
	durable bool
	opt     bool

	//persist:rcas-managed
	top pmem.Addr // recoverable CAS cell, own line
	pa  []*qnode.PersistentAlloc
	// spare is each process's one-slot volatile recycler (see retire).
	spare []spareNode
	// chain/seqCtr are the batch-push applier's per-process scratch
	// (combiners on different shards push concurrently; see batch.go).
	chain  [][]uint32
	seqCtr []uint64

	ops  capsule.RoutineID
	push int // entry pc
	pop  int
}

// spareNode is a popped base-arena node held for its process's next
// push. It is valid only in the incarnation that popped it: restarts is
// the process's restart count at the pop, and a crash since then means
// the volatile slot died with it, whatever the Go value still says.
type spareNode struct {
	n        uint32
	restarts uint64
}

// link returns the address of node n's link cell. Link cells hold
// recoverable-CAS triples — a raw port CAS or Write on one destroys a
// concurrent process's un-announced evidence (the batch-push applier's
// CasAnon comment in batch.go is the full argument) — so the
// declaration is marked for persistlint's rawcas and every link address
// flows through here rather than through bare arena.Next calls.
//
//persist:rcas-managed
func (s *Stack) link(n uint32) pmem.Addr {
	return s.arena.Next(n)
}

// Config assembles the stack's dependencies.
type Config struct {
	Mem     *pmem.Memory
	Space   rcas.CasSpace
	Arena   *qnode.Arena
	P       int
	Durable bool
	Opt     bool
}

// Slots (shared by both operations; each Invoke/Call resets the frame).
const (
	sV   = 1 // push: value argument / pop: value read
	sN   = 2 // push: allocated node
	sTop = 3 // expected top triple
	sNx  = 4 // pop: next triple under top
)

// Program counters.
const (
	pcPushGen  = 0
	pcPushExec = 1
	pcPopGen   = 2
	pcPopExec  = 3
)

// New builds the stack; call Register and Init before use.
func New(cfg Config) *Stack {
	s := &Stack{
		mem:     cfg.Mem,
		space:   cfg.Space,
		arena:   cfg.Arena,
		nproc:   cfg.P,
		durable: cfg.Durable,
	}
	s.top = cfg.Mem.AllocLines(1)
	s.pa = make([]*qnode.PersistentAlloc, cfg.P)
	s.spare = make([]spareNode, cfg.P)
	s.chain = make([][]uint32, cfg.P)
	s.seqCtr = make([]uint64, cfg.P)
	cfg.Space.SetDurable(cfg.Durable)
	s.opt = cfg.Opt
	return s
}

// Init writes the empty-stack state and creates per-process allocators
// over disjoint arena ranges, skipping firstReserved indices (used for
// pre-seeded contents; pass 0 when not seeding). Must run before the
// processes start.
func (s *Stack) Init(port *pmem.Port, firstReserved uint32) {
	rcas.InitCell(port, s.top, 0, rcas.Alias(0, s.nproc), 0)
	port.FlushFence(s.top)
	for i := 0; i < s.nproc; i++ {
		lo, hi := s.arena.Range(i, s.nproc, firstReserved)
		s.pa[i] = qnode.NewPersistentAlloc(s.mem, port, s.arena, lo, hi)
	}
}

// Seed pre-fills the stack with n values from gen using arena nodes
// [start, start+n); gen(n-1) ends up on top. Mirrors the queues'
// pre-seeded initial contents. Must run after Init (with those nodes
// reserved) and before concurrent use. Seeded nodes are durable before
// the top that makes them reachable, as pushed ones are: pop reads them
// without flushing.
func (s *Stack) Seed(port *pmem.Port, start, n uint32, gen func(i uint32) uint64) {
	alias := rcas.Alias(0, s.nproc)
	prev := uint32(rcas.Val(port.Read(s.top)))
	for i := uint32(0); i < n; i++ {
		node := start + i
		port.Write(s.arena.Val(node), gen(i))
		rcas.InitCell(port, s.link(node), uint64(prev), alias, uint64(i+1))
		port.Flush(s.arena.Addr(node))
		prev = node
	}
	port.Fence()
	t := port.Read(s.top)
	//lint:ignore rawcas quiescent setup before any process attaches: no concurrent CAS evidence can exist yet, and the seq bump keeps the triple fresh
	port.Write(s.top, rcas.Pack(uint64(prev), alias, rcas.Seq(t)+1))
	port.FlushFence(s.top)
}

// Register registers the push/pop routine; PushEntry and PopEntry give
// the capsule entry points.
func (s *Stack) Register(reg *capsule.Registry) {
	s.ops = reg.Register("pstack-ops", s.opt,
		s.pushGen, s.pushExec, s.popGen, s.popExec)
	s.push, s.pop = pcPushGen, pcPopGen
}

// Routine returns the registered routine id.
func (s *Stack) Routine() capsule.RoutineID { return s.ops }

// PushEntry returns the push capsule entry (one uint64 argument, no
// results).
func (s *Stack) PushEntry() int { return s.push }

// PopEntry returns the pop capsule entry (no arguments; results are
// (ok, value)).
func (s *Stack) PopEntry() int { return s.pop }

// pushGen allocates the node and persists it with the expected top at
// its boundary. It writes nothing else: the node is written by the
// executor, so this capsule leaves no flush for the boundary to fence.
func (s *Stack) pushGen(c *capsule.Ctx) {
	c.SetLocal(sN, uint64(s.alloc(c)))
	c.SetLocal(sTop, s.space.ReadFull(c.Mem(), s.top))
	c.Boundary(pcPushExec)
}

// pushExec writes the private node from persisted locals and publishes
// it. The node's flush is drained by the recoverable CAS's locked
// instruction before the CAS on top, so the node is durable before it is
// reachable. A repetition rewrites the node only if CheckRecovery says
// the CAS did not happen: once it did, the node belongs to the stack and
// may already be popped and reused. On success the top cell's flush is
// left for the routine's next persisted commit to fence.
func (s *Stack) pushExec(c *capsule.Ctx) {
	pid := c.P().ID()
	p := c.Mem()
	seq := c.NextSeq()
	top := c.Local(sTop)
	ok := false
	if c.Crashed() {
		ok = s.space.CheckRecovery(p, s.top, seq, pid)
	}
	if !ok {
		n := uint32(c.Local(sN))
		p.Write(s.arena.Val(n), c.Local(sV))
		rcas.InitCell(p, s.link(n), rcas.Val(top), pid, seq)
		if s.durable {
			p.Flush(s.arena.Addr(n)) // value and link share the node's line
		}
		ok = s.space.Cas(p, s.top, top, uint64(n), seq, pid)
	}
	if ok {
		c.Done()
		return
	}
	// Regenerate in the same capsule: the next attempt relinks the node.
	c.SetLocal(sTop, s.space.ReadFull(p, s.top))
	c.Boundary(pcPushExec)
}

// alloc returns a private node for a push: the process's spare if this
// incarnation popped one, else a node from its persistent allocator. A
// spare may be rewritten only once its removal is durable; under Call
// the pop's Return fenced it, and after a depth-0 Invoke, whose
// completion is volatile, the pop's top flush is fenced here — the
// retire precondition, deferred to the point of reuse.
func (s *Stack) alloc(c *capsule.Ctx) uint32 {
	pid := c.P().ID()
	p := c.Mem()
	if sp := &s.spare[pid]; sp.n != 0 {
		n := sp.n
		sp.n = 0
		if sp.restarts == c.P().Restarts() {
			if p.HasUnfencedFlush() {
				p.Fence()
			}
			return n
		}
	}
	return s.pa[pid].Alloc(p, func(w uint64) uint32 { return uint32(rcas.Val(w)) })
}

func (s *Stack) popGen(c *capsule.Ctx) {
	if !s.popGenerate(c) {
		return
	}
	c.Boundary(pcPopExec)
}

// popGenerate reads the top node and persists the pop-CAS descriptor;
// returns false if it already terminated (empty stack).
//
// The empty-result completion rides the capsule read-only tier
// (DoneRO): observing an empty stack is a pure read, and re-executing
// the observation after a crash is a fresh, equally valid
// linearization. This is the *only* part of the stack that may elide —
// a generator boundary before the executor must persist, because the
// executor's CheckRecovery depends on the exact descriptor and
// sequence number the generator persisted: an elided boundary would
// re-run the generator against the post-CAS state and regenerate
// against the wrong node (see DESIGN.md, "Where elision is
// impermissible"). DoneRO enforces this soundly by construction: it
// elides only when the span since the last persisted commit had zero
// persistent effects. After a failed executor attempt that can hold (a
// failed recoverable CAS only reads), and it is still sound: a crash
// re-runs the executor from the persisted descriptor and sequence
// number, whose CheckRecovery finds no success and whose CAS fails again.
func (s *Stack) popGenerate(c *capsule.Ctx) bool {
	p := c.Mem()
	top := s.space.ReadFull(p, s.top)
	if rcas.Val(top) == 0 {
		c.DoneRO(0, 0)
		return false
	}
	// A reachable node is durable, so its link and value need no flush.
	// If the node is popped and reused after the top read, the link read
	// here is stale, but the CAS expects the full top triple and fails.
	n := uint32(rcas.Val(top))
	nx := s.space.ReadFull(p, s.link(n))
	v := p.Read(s.arena.Val(n))
	c.SetLocal(sTop, top)
	c.SetLocal(sNx, nx)
	c.SetLocal(sV, v)
	return true
}

func (s *Stack) popExec(c *capsule.Ctx) {
	pid := c.P().ID()
	p := c.Mem()
	seq := c.NextSeq()
	top := c.Local(sTop)
	ok := false
	if c.Crashed() {
		ok = s.space.CheckRecovery(p, s.top, seq, pid)
	}
	if !ok {
		ok = s.space.Cas(p, s.top, top, rcas.Val(c.Local(sNx)), seq, pid)
	}
	if ok {
		s.retire(c, uint32(rcas.Val(top)))
		c.Done(1, c.Local(sV))
		return
	}
	if !s.popGenerate(c) {
		return
	}
	c.Boundary(pcPopExec)
}

// retire disposes of node n, just popped by this process, whose removal
// is still only flushed. A base-arena node becomes the process's spare
// when the slot is empty or left over from before a restart: volatile,
// so the removal needs no fence until alloc reuses the node, and a crash
// leaks at most this one node. Otherwise the removal is made durable
// first — the precondition of both recyclers — and a packed node goes
// back to its pool (packed indices must never reach the free list, which
// would reallocate them one per line), anything else onto the persistent
// free list.
func (s *Stack) retire(c *capsule.Ctx, n uint32) {
	pid := c.P().ID()
	p := c.Mem()
	if sp := &s.spare[pid]; (sp.n == 0 || sp.restarts != c.P().Restarts()) && !s.arena.IsPacked(n) {
		*sp = spareNode{n: n, restarts: c.P().Restarts()}
		return
	}
	if s.durable {
		p.PersistEpoch(s.top) // the CAS's flush of the cell coalesces
	}
	if !s.arena.Retire(pid, n) {
		fh := s.pa[pid].FreeHead(p)
		if fh != n {
			s.pa[pid].Free(p, n, rcas.Pack(uint64(fh), rcas.Alias(pid, s.nproc), c.Seq()))
		}
	}
}

// Len counts nodes by traversal; quiescent test helper.
func (s *Stack) Len(port *pmem.Port) int {
	n := 0
	s.walk(port, func(uint32) { n++ })
	return n
}

// Drain returns the values currently in the stack, top first, by
// traversal; quiescent test/crash-stress helper.
func (s *Stack) Drain(port *pmem.Port) []uint64 {
	var out []uint64
	s.walk(port, func(i uint32) { out = append(out, port.Read(s.arena.Val(i))) })
	return out
}

// walk visits the stack's nodes top first. It panics on a chain longer
// than the arena — a link cycle in a recovered stack, which would
// otherwise never end (and grow Drain's result without bound).
func (s *Stack) walk(port *pmem.Port, visit func(n uint32)) {
	i := uint32(rcas.Val(port.Read(s.top)))
	for n := uint32(0); i != 0; n++ {
		if n >= s.arena.End() {
			panic("pstack: link chain longer than the arena (cycle in the recovered stack)")
		}
		visit(i)
		i = uint32(rcas.Val(port.Read(s.link(i))))
	}
}

// Package pqueue contains the persistent queues obtained by applying the
// paper's transformations to the Michael–Scott queue (Section 10):
//
//   - General: the Low-Computation-Delay Simulator of Section 6 —
//     CAS-Read capsules, one recoverable CAS at the head of each capsule,
//     full two-copy frames.
//   - General-Opt: the same state machine over compact one-cache-line
//     frames (single flush+fence per boundary, no validity mask) with
//     the fence-before-CAS elision of Section 10.
//   - Normalized: the Persistent Normalized Simulator of Section 7
//     (Algorithm 4) — the Michael–Scott queue in Timnat–Petrank
//     normalized form, with one capsule boundary per operation-loop
//     iteration, anonymous (non-recoverable) helping CASes in the
//     generator and wrap-up, and a recoverable CAS executor.
//   - Normalized-Opt: the same over compact frames.
//
// Every variant runs in three durability configurations:
//
//   - private model: no flushes beyond the capsule protocol's own
//     (crash = process crash, persistent memory intact);
//   - Izraelevitz: enable pmem.Port.Auto on the worker ports — every
//     shared access is flushed (Figure 5);
//   - manual: construct with Durable set — hand-placed flushes modeled
//     on Friedman et al.'s durable queue, flushing both head and tail
//     as the paper describes (Figure 6).
package pqueue

import (
	"delayfree/internal/capsule"
	"delayfree/internal/history"
	"delayfree/internal/pmem"
	"delayfree/internal/proc"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
)

// Config assembles the pieces shared by all queue variants.
type Config struct {
	Mem   *pmem.Memory
	Space rcas.CasSpace
	Arena *qnode.Arena
	P     int
	// Durable inserts the manual flushes of the Figure 6 variants.
	Durable bool
	// Opt selects compact frames and fence elision (the -Opt variants).
	Opt bool
}

// base is the state shared by the General and Normalized queues: the
// queue cells, the node arena, and per-process allocators.
type base struct {
	Config
	//persist:rcas-managed
	head pmem.Addr // recoverable CAS cell, own line
	//persist:rcas-managed
	tail pmem.Addr // recoverable CAS cell, own line
	h    []*handle
}

// link returns the address of node n's link cell. Link cells hold
// recoverable-CAS triples — a raw port CAS or Write on one destroys a
// concurrent process's un-announced evidence (the PR 8 splice bug), so
// the declaration is marked for persistlint's rawcas and every link
// address flows through here rather than through bare Arena.Next calls.
//
//persist:rcas-managed
func (b *base) link(n uint32) pmem.Addr {
	return b.Arena.Next(n)
}

// handle is per-process queue state.
type handle struct {
	pa      *qnode.PersistentAlloc
	anonCtr uint64
	// chain is the batch applier's reusable node-index buffer.
	chain []uint32
}

// DummyNode is the arena index of the initial dummy node every queue
// variant reserves.
const DummyNode uint32 = 1

func newBase(cfg Config) *base {
	b := &base{Config: cfg}
	b.head = cfg.Mem.AllocLines(1)
	b.tail = cfg.Mem.AllocLines(1)
	b.h = make([]*handle, cfg.P)
	// Manual-flush durability requires the recoverable CAS protocol's
	// own evidence writes to be flushed too.
	cfg.Space.SetDurable(cfg.Durable)
	return b
}

// Init writes the empty-queue state (head = tail = dummy) and creates
// the per-process allocators over disjoint arena ranges, skipping
// firstReserved indices (dummy + any pre-seeded nodes). Must run before
// the processes start.
func (b *base) Init(port *pmem.Port, firstReserved uint32) {
	rcas.InitCell(port, b.link(DummyNode), 0, rcas.Alias(0, b.P), 0)
	rcas.InitCell(port, b.head, uint64(DummyNode), rcas.Alias(0, b.P), 0)
	rcas.InitCell(port, b.tail, uint64(DummyNode), rcas.Alias(0, b.P), 0)
	port.PersistEpoch(b.link(DummyNode), b.head, b.tail)
	for i := 0; i < b.P; i++ {
		lo, hi := b.Arena.Range(i, b.P, firstReserved)
		b.h[i] = &handle{pa: qnode.NewPersistentAlloc(b.Mem, port, b.Arena, lo, hi)}
	}
}

// Seed pre-fills the queue with n values from gen using arena nodes
// [start, start+n); mirrors the paper's 1M-node initial queue. Must run
// after Init and before concurrent use.
func (b *base) Seed(port *pmem.Port, start, n uint32, gen func(i uint32) uint64) {
	alias := rcas.Alias(0, b.P)
	last := uint32(rcas.Val(port.Read(b.tail)))
	for i := uint32(0); i < n; i++ {
		node := start + i
		port.Write(b.Arena.Val(node), gen(i))
		rcas.InitCell(port, b.link(node), 0, alias, uint64(i+1))
		rcas.InitCell(port, b.link(last), uint64(node), alias, uint64(i+1))
		last = node
	}
	t := port.Read(b.tail)
	//lint:ignore rawcas quiescent setup before any process attaches: no concurrent CAS evidence can exist yet, and the seq bump keeps the triple fresh
	port.Write(b.tail, rcas.Pack(uint64(last), alias, rcas.Seq(t)+1))
	port.Flush(b.tail)
	port.Fence()
}

// moved reports whether the anchor cell a (head or tail) no longer holds
// the word w it was read as: the Michael–Scott check, after reading a
// link through w, that w's node was still in the queue when its link
// was read. Without it the node may have been dequeued, freed and
// re-allocated in between, and the word read is a free-list or fresh
// link rather than a queue link. Full-word equality is ABA-safe: every
// successful rcas CAS writes a fresh ⟨pid, seq⟩. With one process
// nothing moves the anchor between two of its own reads, so the re-read
// is skipped and a one-process operation costs what it always did.
func (b *base) moved(p *pmem.Port, a pmem.Addr, w uint64) bool {
	return b.P > 1 && b.Space.ReadFull(p, a) != w
}

// alloc allocates and initializes a node with value v, returning its
// index. The node's link is initialized to null under a fresh alias
// nonce so no stale expectation can match it. A capsule repetition can
// leak one node (see qnode).
func (b *base) alloc(c *capsule.Ctx, v uint64) uint32 {
	pid := c.P().ID()
	p := c.Mem()
	n := b.h[pid].pa.Alloc(p, func(w uint64) uint32 { return uint32(rcas.Val(w)) })
	p.Write(b.Arena.Val(n), v)
	rcas.InitCell(p, b.link(n), 0, rcas.Alias(pid, b.P), c.Seq())
	if b.Durable {
		// Value and link share the node's line: the batch flush issues
		// one per written word, and the second coalesces.
		p.FlushAddrs(b.Arena.Val(n), b.link(n))
		b.maybeFence(p)
	}
	return n
}

// free recycles a dequeued node n whose link word is nx: packed nodes
// return to their pool's refcounted recycler (host-side; the dequeue's
// PersistEpoch already made the removal durable, which is the pool's
// retire precondition), everything else goes onto the process's free
// list. Safe to repeat within a capsule (the pool suppresses the replay
// duplicate, the allocator detects re-push, and the sequence number —
// hence the link nonce — is deterministic across repetitions). Packed
// indices must never reach the one-node-per-line free list:
// reallocating them through the unbatched path would break the packed
// extent's single-writer line discipline.
//
// nx is the evidence of the link CAS that enqueued n's successor. When
// another process issued it, that process may have crashed before
// recording its success, and recycling overwrites the link with plain
// writes. So the link is first handed over by an anonymous CAS that
// keeps its value and notifies the owner, whose CheckRecovery then
// finds the success instead of linking its node a second time. A link
// CAS of our own belongs to an operation that has already completed.
func (b *base) free(c *capsule.Ctx, n uint32, nx uint64) {
	pid := c.P().ID()
	p := c.Mem()
	if owner := rcas.Pid(nx); owner < b.P && owner != pid {
		b.Space.CasAnon(p, b.link(n), nx, rcas.Val(nx), b.anonSeq(c), pid)
	}
	if b.Arena.Retire(pid, n) {
		return
	}
	fh := b.h[pid].pa.FreeHead(p)
	if fh == n {
		return
	}
	link := rcas.Pack(uint64(fh), rcas.Alias(pid, b.P), c.Seq())
	b.h[pid].pa.Free(p, n, link)
}

// anonSeq produces a sequence number for anonymous helping CASes. It
// mixes the persisted capsule sequence number with a volatile counter;
// anonymous CASes may repeat and need no recovery, only (alias, seq)
// freshness against in-flight expectations (Section 7).
func (b *base) anonSeq(c *capsule.Ctx) uint64 {
	h := b.h[c.P().ID()]
	h.anonCtr++
	return (c.Seq()*64 + h.anonCtr&63) & rcas.MaxSeq
}

// maybeFence issues a fence unless the Opt configuration elides fences
// that are immediately followed by a CAS (Section 10; the locked
// instruction orders the preceding flush).
func (b *base) maybeFence(p *pmem.Port) {
	if !b.Opt {
		p.Fence()
	}
}

// persist flushes addr and fences (always fencing: used where no CAS
// follows). When the recoverable-CAS layer already flushed the cell in
// this epoch, the flush coalesces.
func (b *base) persist(p *pmem.Port, addr pmem.Addr) {
	p.PersistEpoch(addr)
}

// HeadAddr returns the head cell's address (for recovery audits and
// benchmarks that query the recoverable CAS directly).
func (b *base) HeadAddr() pmem.Addr { return b.head }

// TailAddr returns the tail cell's address.
func (b *base) TailAddr() pmem.Addr { return b.tail }

// Len traverses the queue; test/recovery helper, not linearizable under
// concurrency.
func (b *base) Len(port *pmem.Port) int {
	n := 0
	b.walk(port, func(uint32) { n++ })
	return n
}

// Drain returns the values currently in the queue by traversal;
// quiescent test helper.
func (b *base) Drain(port *pmem.Port) []uint64 {
	var out []uint64
	b.walk(port, func(n uint32) { out = append(out, port.Read(b.Arena.Val(n))) })
	return out
}

// walk visits the queue's nodes head to tail. It panics on a chain
// longer than the arena — a link cycle in a recovered queue, which
// would otherwise never end (and grow Drain's result without bound).
func (b *base) walk(port *pmem.Port, visit func(n uint32)) {
	i := uint32(rcas.Val(port.Read(b.head)))
	for n := uint32(0); ; n++ {
		nx := uint32(rcas.Val(port.Read(b.link(i))))
		if nx == 0 {
			return
		}
		if n >= b.Arena.End() {
			panic("pqueue: link chain longer than the arena (cycle in the recovered queue)")
		}
		visit(nx)
		i = nx
	}
}

// Queue is the interface the harness and tests use to treat all
// transformed variants uniformly: routines to call from a driver
// program plus setup helpers.
type Queue interface {
	// Register registers the enqueue and dequeue routines.
	Register(reg *capsule.Registry)
	// EnqRoutine and DeqRoutine return the registered routine ids, and
	// EnqEntry/DeqEntry the capsule entry points within them. Enqueue
	// takes one argument (the value) and returns nothing; Dequeue takes
	// none and returns (ok, value).
	EnqRoutine() capsule.RoutineID
	DeqRoutine() capsule.RoutineID
	EnqEntry() int
	DeqEntry() int
	// Init/Seed/Len/Drain as on base.
	Init(port *pmem.Port, firstReserved uint32)
	Seed(port *pmem.Port, start, n uint32, gen func(i uint32) uint64)
	Len(port *pmem.Port) int
	Drain(port *pmem.Port) []uint64
}

// Driver slots for RegisterPairsDriver.
const (
	drvRemaining = 1
	drvCounter   = 2
	drvDeqOK     = 3
	drvDeqVal    = 4
	drvSink      = 5
)

// RegisterPairsDriver registers a depth-0 routine that runs the paper's
// benchmark workload: `remaining` enqueue-dequeue pairs, with unique
// values pid<<40|counter. Install it with args = (pairs). The returned
// id is the routine to install.
func RegisterPairsDriver(reg *capsule.Registry, q Queue) capsule.RoutineID {
	return registerPairsDriver(reg, q, 0, nil, nil)
}

// registerPairsDriver is RegisterPairsDriver with the crash-stress
// repetition hook: when a batch of pairs completes and keepGoing still
// reports true, the driver starts another batch of `pairs` pairs (the
// value counter keeps increasing, so values stay unique) — crash-stress
// rounds use this to keep the workload alive until the crash quota is
// met. keepGoing may be read at different times by a repeated dispatch
// capsule; that is safe because the exactness check depends only on the
// *persisted* counter, never on when the driver decided to stop.
//
// With rec non-nil every operation is announced and its completion
// recorded, keyed by the pair counter (so enqueue k and the dequeue of
// the same pair share ID k). A capsule repetition re-records the same
// (op, id); the history merge collapses the repeats into one
// conservative interval.
func registerPairsDriver(reg *capsule.Registry, q Queue, pairs uint64, keepGoing func() bool, rec *history.Recorder) capsule.RoutineID {
	return reg.Register("pairs-driver", false,
		func(c *capsule.Ctx) { // pc0: enqueue, refill the batch, or finish
			if c.Local(drvRemaining) == 0 {
				if keepGoing == nil || !keepGoing() {
					c.Finish(c.Local(drvSink))
					return
				}
				c.SetLocal(drvRemaining, pairs)
			}
			id := c.Local(drvCounter)
			v := uint64(c.P().ID())<<40 | id
			c.SetLocal(drvCounter, id+1)
			rec.Invoke(c.P().ID(), history.OpEnq, id, v, 0, c.Mem().Stats)
			c.Call(q.EnqRoutine(), q.EnqEntry(), 1, []uint64{v}, nil)
		},
		func(c *capsule.Ctx) { // pc1: enqueue committed; dequeue
			if rec.Enabled() {
				id := c.Local(drvCounter) - 1
				rec.Return(c.P().ID(), history.OpEnq, id, true, 0, c.Mem().Stats)
				rec.Invoke(c.P().ID(), history.OpDeq, id, 0, 0, c.Mem().Stats)
			}
			c.Call(q.DeqRoutine(), q.DeqEntry(), 2, nil, []int{drvDeqOK, drvDeqVal})
		},
		func(c *capsule.Ctx) { // pc2: account and loop
			rec.Return(c.P().ID(), history.OpDeq, c.Local(drvCounter)-1,
				c.Local(drvDeqOK) != 0, c.Local(drvDeqVal), c.Mem().Stats)
			c.SetLocal(drvRemaining, c.Local(drvRemaining)-1)
			c.SetLocal(drvSink, c.Local(drvSink)+c.Local(drvDeqVal))
			c.Boundary(0)
		},
	)
}

// OpLog records completed operations for checking; shared by tests.
type OpLog struct {
	Enqueued []uint64
	Dequeued []uint64
	Empties  int
}

// RegisterLoggingDriver is like RegisterPairsDriver but records every
// completed operation in logs[pid] (volatile, one per process, owned by
// the embedding test). Values are pid<<40|counter. The log reflects the
// volatile view: in crash-free runs it is exact; under crashes an
// operation can complete without being logged, or be logged twice when
// a driver capsule repeats — crash tests must validate from persistent
// state instead.
func RegisterLoggingDriver(reg *capsule.Registry, q Queue, logs []*OpLog) capsule.RoutineID {
	return reg.Register("logging-driver", false,
		func(c *capsule.Ctx) { // pc0
			if c.Local(drvRemaining) == 0 {
				c.Finish()
				return
			}
			v := uint64(c.P().ID())<<40 | c.Local(drvCounter)
			c.SetLocal(drvCounter, c.Local(drvCounter)+1)
			c.Call(q.EnqRoutine(), q.EnqEntry(), 1, []uint64{v}, nil)
		},
		func(c *capsule.Ctx) { // pc1: enqueue committed (Call returned)
			log := logs[c.P().ID()]
			v := uint64(c.P().ID())<<40 | (c.Local(drvCounter) - 1)
			log.Enqueued = append(log.Enqueued, v)
			c.Call(q.DeqRoutine(), q.DeqEntry(), 2, nil, []int{drvDeqOK, drvDeqVal})
		},
		func(c *capsule.Ctx) { // pc2
			log := logs[c.P().ID()]
			if c.Local(drvDeqOK) != 0 {
				log.Dequeued = append(log.Dequeued, c.Local(drvDeqVal))
			} else {
				log.Empties++
			}
			c.SetLocal(drvRemaining, c.Local(drvRemaining)-1)
			c.Boundary(0)
		},
	)
}

// InstallDriver installs the driver routine for every process and
// returns ready-to-run programs.
func InstallDriver(rt *proc.Runtime, reg *capsule.Registry, drv capsule.RoutineID, bases []pmem.Addr, pairs uint64) func(i int) proc.Program {
	for i := 0; i < rt.P(); i++ {
		capsule.Install(rt.Proc(i).Mem(), bases[i], reg, drv, pairs)
	}
	return func(i int) proc.Program {
		return func(p *proc.Proc) {
			capsule.NewMachine(p, reg, bases[i]).Run()
		}
	}
}

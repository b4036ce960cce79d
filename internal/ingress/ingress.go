// Package ingress is the sharded batching front-end: bounded MPSC rings
// carry operation records from many producers to one combiner per
// shard, and each combiner executes a whole batch of operations inside
// a single capsule span closed by a single PersistEpoch — amortizing
// the per-operation Boundary/flush/fence cost that every structure
// otherwise pays across BatchMax operations.
//
// The ring is Vyukov-style: a power-of-two array of cacheline-padded
// cells, each carrying a ticket sequence number. Producers reserve a
// position with a CAS on the tail ticket, gated on published consumer
// progress so a reservation always lands on a free cell; the winner
// then writes its record and releases the cell's sequence in host code
// with no instrumented step in between, so a simulated crash (which
// only fires at instrumented steps) can never strand a half-published
// hole that would wedge the combiner. The consumer frees a cell
// *before* publishing its new head, so passing the gate proves the
// cell is writable.
//
// The ring lives in host (volatile) memory on purpose: its contents
// are exactly the in-flight tail of each shard's batch, which a
// full-system crash is allowed to lose. Durability begins at the
// combiner's batch commit — each drained operation is applied to the
// persistent structure and made durable by the batch's closing
// PersistEpoch before any producer is told it completed. An operation
// therefore executes exactly once or never: records leave the ring
// before they are applied (a combiner crash cannot replay them), and
// producers never republish an operation they cannot prove was dropped.
//
// Read-only operations bypass the ring entirely and ride the capsule
// read-only fast lane: they have no persistent effects to amortize,
// and funneling them through a combiner would serialize what the fast
// lane performs with zero flushes and fences.
package ingress

import (
	"runtime"
	"sync/atomic"

	"delayfree/internal/capsule"
)

// Op codes for ring records. The ingress layer does not interpret
// them; they select the family applier's action.
const (
	OpEnqueue uint8 = iota
	OpPush
	OpPut
	OpDelete
)

// Record is one published operation: the op code, the producing
// process, up to two argument words, and the completion slot. Done is
// nil for fire-and-forget producers (benchmarks); otherwise the
// combiner stores Token into Done after the batch's durability point,
// and the producer treats any other value — including a stale token
// from an operation it abandoned — as "not mine".
type Record struct {
	Op   uint8
	Pid  int32
	A, B uint64
	// Token/Done: completion protocol. Tokens are unique per producer
	// operation, so a late store for an abandoned operation can never
	// satisfy a later operation's wait.
	Token uint64
	Done  *atomic.Uint64
}

// cell pads each slot to one 64-byte cache line: seq (8) + Record (40)
// + padding (16).
type cell struct {
	seq atomic.Uint64
	rec Record
	_   [16]byte
}

// Ring is the bounded MPSC ring. Producers call Publish concurrently;
// exactly one goroutine may call Drain/Len. Reset is stopped-world
// only.
type Ring struct {
	cells   []cell
	mask    uint64
	_       [48]byte // keep the hot tickets off the cells' lines
	tail    atomic.Uint64
	_       [56]byte
	headPub atomic.Uint64
	head    uint64 // consumer-private
}

// NewRing builds a ring with the given capacity, rounded up to a power
// of two (minimum 2).
func NewRing(capacity int) *Ring {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &Ring{cells: make([]cell, n), mask: uint64(n - 1)}
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
	return r
}

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return len(r.cells) }

// TryPublish attempts to publish rec without blocking; it reports
// false when the ring is full (or the reservation race was lost —
// callers spin).
func (r *Ring) TryPublish(rec Record) bool {
	t := r.tail.Load()
	if t-r.headPub.Load() >= uint64(len(r.cells)) {
		return false
	}
	c := &r.cells[t&r.mask]
	if c.seq.Load() != t {
		// Gate passed on a stale tail read; the cell for the *current*
		// tail may still be free — retry from a fresh load.
		return false
	}
	if !r.tail.CompareAndSwap(t, t+1) {
		return false
	}
	// Reservation won: write and release with no instrumented step in
	// between — publish is atomic with respect to simulated crashes.
	c.rec = rec
	c.seq.Store(t + 1)
	return true
}

// Publish blocks until rec is in the ring, calling spin (if non-nil)
// on every failed attempt with adaptive host-level backoff. Producers
// running as simulated processes pass a spin that issues an
// instrumented step, so crash injection can land while they wait for
// ring space.
func (r *Ring) Publish(rec Record, spin func()) {
	backoff := 0
	for !r.TryPublish(rec) {
		if spin != nil {
			spin()
		}
		if backoff < 64 {
			backoff++
		}
		if backoff > 8 {
			runtime.Gosched()
		}
	}
}

// Drain moves up to len(buf) published records into buf, returning the
// count. Consumer-only. A drained record is gone: the cell is freed
// before the consumer's head advances, so the producer-side gate can
// never admit a writer to a cell the consumer still needs.
func (r *Ring) Drain(buf []Record) int {
	n := 0
	for n < len(buf) {
		c := &r.cells[r.head&r.mask]
		if c.seq.Load() != r.head+1 {
			break
		}
		buf[n] = c.rec
		c.rec = Record{}
		c.seq.Store(r.head + uint64(len(r.cells)))
		r.head++
		r.headPub.Store(r.head)
		n++
	}
	return n
}

// Len returns the ring's depth as the consumer sees it: positions
// reserved and not yet drained (tail − head). Consumer-only (it reads the
// consumer-private head). A producer reserves its position before it
// writes and releases the cell, so Len may count a record Drain cannot
// take yet. It therefore never under-reports what the next Drain
// returns, and a Drain that returns 0 after Len() > 0 means "poll
// again", not "empty".
func (r *Ring) Len() int { return int(r.tail.Load() - r.head) }

// Reset wipes the ring back to empty. Stopped-world only: the proc
// runtime's full-system crash hook calls it while every producer and
// the combiner are parked, modeling the volatile ring's total loss.
func (r *Ring) Reset() {
	for i := range r.cells {
		r.cells[i].rec = Record{}
		r.cells[i].seq.Store(uint64(i))
	}
	r.tail.Store(0)
	r.headPub.Store(0)
	r.head = 0
}

// Shard is one ring plus its combiner's restart epoch. The epoch
// advances every time the shard's combiner restarts (individually in
// the private model, or with everyone in a full-system crash); a
// producer that snapshotted an older epoch abandons its in-flight
// operation instead of waiting for a completion that may never come —
// the operation stays "invoked, never returned", which the durable-
// linearizability checkers excuse as absent-or-once.
type Shard struct {
	Ring  *Ring
	Epoch atomic.Uint64
	buf   []Record
}

// Pool is the front-end handed to producers and combiners: the shard
// rings, the batch bound, and producer-completion tracking that tells
// combiners when to finish.
type Pool struct {
	shards   []*Shard
	BatchMax int
	done     []atomic.Bool
	nDone    atomic.Int32
}

// NewPool builds a pool of `shards` rings of the given capacity,
// serving `producers` producers with batches bounded by batchMax.
func NewPool(shards, capacity, batchMax, producers int) *Pool {
	if shards < 1 {
		shards = 1
	}
	if batchMax < 1 {
		batchMax = 1
	}
	pl := &Pool{
		shards:   make([]*Shard, shards),
		BatchMax: batchMax,
		done:     make([]atomic.Bool, producers),
	}
	for i := range pl.shards {
		pl.shards[i] = &Shard{Ring: NewRing(capacity), buf: make([]Record, batchMax)}
	}
	return pl
}

// NumShards returns the shard count.
func (pl *Pool) NumShards() int { return len(pl.shards) }

// Shard returns shard i.
func (pl *Pool) Shard(i int) *Shard { return pl.shards[i] }

// MarkDone records that producer pid has finished publishing;
// idempotent (a producer's host wrapper may run once per restart).
func (pl *Pool) MarkDone(pid int) {
	if !pl.done[pid].Swap(true) {
		pl.nDone.Add(1)
	}
}

// AllDone reports whether every producer has finished publishing.
func (pl *Pool) AllDone() bool { return int(pl.nDone.Load()) == len(pl.done) }

// Reset wipes every ring and advances every shard epoch; stopped-world
// only (the full-system crash hook).
func (pl *Pool) Reset() {
	for _, sh := range pl.shards {
		sh.Ring.Reset()
		sh.Epoch.Add(1)
	}
}

// GroupApply applies one drained batch inside the combiner's capsule
// span and reports whether its durability is deferred past the span: it
// returns true while swings of a group-commit window still await their
// close fence, false once everything applied so far is durable.
type GroupApply func(c *capsule.Ctx, batch []Record) (deferred bool)

// RegisterCombiner registers shard `shard`'s combiner for an applier
// that never defers: apply must end with the batch's durability point
// (a PersistEpoch covering the batch's commit words), so the one loop
// below holds nothing and stores completion tokens inside the span,
// strictly after apply returns. With no close hook there is no close to
// amortise, so the combiner never lingers either: it drains what is
// there on the poll that sees it (a linger would only add latency).
func RegisterCombiner(reg *capsule.Registry, name string, pool *Pool, shard int,
	apply func(c *capsule.Ctx, batch []Record)) capsule.RoutineID {
	return RegisterGroupCombiner(reg, name, pool, shard,
		func(c *capsule.Ctx, batch []Record) bool { apply(c, batch); return false }, nil)
}

// ChainApplier adapts a value-batch applier (pqueue.BatchEnqueuer,
// pstack.BatchPusher) to the combiner: each record's A word is one
// value, and the applier's own commit is the durability point, so
// nothing is ever deferred. The buffer is the combiner's own, sized
// once.
func ChainApplier(batchMax int, apply func(c *capsule.Ctx, vals []uint64)) GroupApply {
	vals := make([]uint64, batchMax)
	return func(c *capsule.Ctx, batch []Record) bool {
		for i := range batch {
			vals[i] = batch[i].A
		}
		apply(c, vals[:len(batch)])
		return false
	}
}

// groupIdleGrace is the span-start linger bound of a group combiner, in
// ring polls, and the only latency constant of the group tier: a span
// that finds fewer than BatchMax records waits at most this many polls
// for the batch to fill before it applies what it has. It buys batch
// size (one install fence, one boundary and, at low load, one close
// fence per batch instead of per operation) when producers publish a few
// polls apart, and costs an operation that arrives alone at the start of
// a span at most this many polls; one that arrives at a ring already
// idle this long is applied on the poll that sees it. Each poll is an
// instrumented Step, so the linger is also visible to crash injection
// and to the step-gap budgets.
const groupIdleGrace = 128

// RegisterGroupCombiner registers shard `shard`'s combiner as a compact
// capsule routine — the one drain-apply-ack loop: drain up to BatchMax
// records, hand the whole batch to the family applier inside this one
// capsule span, release completions, and close the span with one
// compact boundary. The combiner finishes when every producer is done
// and its ring has drained empty.
//
// A completion token is stored only once its operation is durable, so a
// producer that observes its token knows that much. With a closeWin hook
// (a group-commit applier) the deferral window is a function of backlog:
// when apply reports deferred and the ring already holds a full next
// batch, the window stays open and the batch's tokens are held; with
// anything less waiting, closeWin runs inside this same span — its fence
// before any token store — and everything held plus this batch is
// acknowledged. A lone operation thus pays its own close and waits for
// nobody; a saturated ring amortises one close over the applier's whole
// window, whose auto-close (a later apply returns false) releases the
// held tokens. The same rule shapes the front of the span: see
// groupIdleGrace. closeWin may be nil for an applier that never defers;
// such a combiner does not linger.
//
// Crash interactions: a crash inside apply replays the capsule, but the
// drained records are gone from the ring — the batch's operations
// either became durable at the applier's commit or are lost with the
// ring, never re-executed. Whatever restarts a combiner advances the
// shard epoch (Pool.Reset on a full-system crash, the restart hook for a
// lone combiner crash); the replayed span drops the held records with
// it — their producers abandon through the windowed two-phase protocol,
// and the deferred window they were waiting on died with the volatile
// state. So a span that starts with tokens held starts with the full
// batch that kept the window open still in its ring.
func RegisterGroupCombiner(reg *capsule.Registry, name string, pool *Pool, shard int,
	apply GroupApply, closeWin func(c *capsule.Ctx)) capsule.RoutineID {
	sh := pool.shards[shard]
	var held []Record
	var lastEpoch uint64
	ack := func(recs []Record) {
		for i := range recs {
			if recs[i].Done != nil {
				recs[i].Done.Store(recs[i].Token)
			}
		}
	}
	linger := 0
	if closeWin != nil {
		linger = groupIdleGrace
	}
	return reg.Register(name, true, func(c *capsule.Ctx) {
		if e := sh.Epoch.Load(); e != lastEpoch {
			held = held[:0]
			lastEpoch = e
		}
		var batch []Record
		for polls := 0; ; polls++ {
			// Take a full batch as soon as one is waiting, anything at
			// all once the span is `linger` polls old. Len counts a cell
			// from its reservation; until the producer releases it Drain
			// comes back short, or empty — then poll again rather than
			// apply nothing.
			if polls >= linger || sh.Ring.Len() >= pool.BatchMax {
				if n := sh.Ring.Drain(sh.buf); n > 0 {
					batch = sh.buf[:n]
					break
				}
			}
			if pool.AllDone() && sh.Ring.Len() == 0 {
				c.Finish()
				return
			}
			// Instrumented idle step: crash injection and step-gap
			// accounting see the combiner even while it waits.
			c.P().Step()
			runtime.Gosched()
		}
		deferred := apply(c, batch)
		c.Mem().NoteBatch(uint64(len(batch)))
		if deferred && sh.Ring.Len() >= pool.BatchMax {
			held = append(held, batch...)
		} else {
			if deferred {
				closeWin(c)
			}
			// Everything applied so far is durable: the applier deferred
			// nothing, closed its window inside apply, or closeWin just
			// fenced it.
			ack(held)
			held = held[:0]
			ack(batch)
		}
		c.Boundary(0)
	})
}

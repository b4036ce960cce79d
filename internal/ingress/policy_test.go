package ingress

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"delayfree/internal/capsule"
	"delayfree/internal/pmem"
	"delayfree/internal/proc"
)

// The combiner's batching policy, pinned step by step: one combiner
// process on a Checked memory, a scripted applier standing in for the
// family's, and records published from inside the combiner's own step
// hook, so "the poll that sees it" is an exact step count and nothing
// depends on host scheduling.

const policyBatch = 4

type applyRec struct {
	steps  uint64   // the combiner's step count when apply was entered
	tokens []uint64 // the batch, by token
}

type policyRig struct {
	t       *testing.T
	pool    *Pool
	ring    *Ring
	rt      *proc.Runtime
	port    *pmem.Port      // the combiner's
	done    []atomic.Uint64 // completion slot of token i+1
	next    int             // tokens published so far
	applies []applyRec
	closes  int
	closed  int               // applies covered by a close so far
	script  map[uint64]func() // combiner step count -> action, run inside that step
	// shared, if set, is a completion cell the test hands to records
	// itself; the close hook checks it like the per-token slots.
	shared *atomic.Uint64
	// onApply runs at apply entry n (0-based), before the batch is noted.
	onApply func(n int, c *capsule.Ctx)
	// onRestart runs on the combiner's goroutine after a crash, before
	// the machine resumes.
	onRestart func()
	run       func()
}

// newPolicyRig builds the rig; group selects RegisterGroupCombiner with a
// deferring applier and a close hook, else RegisterCombiner.
func newPolicyRig(t *testing.T, group bool) *policyRig {
	mem := pmem.New(pmem.Config{Words: capsule.ProcWords + 1<<12, Mode: pmem.Shared, Checked: true, Seed: 1})
	r := &policyRig{t: t, pool: NewPool(1, 64, policyBatch, 1), rt: proc.NewRuntime(mem, 1),
		done: make([]atomic.Uint64, 64), script: map[uint64]func(){}}
	r.ring = r.pool.Shard(0).Ring
	r.rt.SystemCrashMode = true
	r.rt.OnSystemCrash = func(uint64) { r.pool.Reset() }
	r.port = r.rt.Proc(0).Mem()
	hook := r.port.Hook
	r.port.Hook = func() {
		if fn := r.script[r.port.Stats.Steps]; fn != nil {
			fn()
		}
		hook()
	}
	note := func(c *capsule.Ctx, batch []Record) {
		if len(batch) == 0 {
			t.Error("apply handed an empty batch")
		}
		if r.onApply != nil {
			r.onApply(len(r.applies), c)
		}
		a := applyRec{steps: c.Mem().Stats.Steps}
		for _, rec := range batch {
			a.tokens = append(a.tokens, rec.Token)
		}
		r.applies = append(r.applies, a)
	}
	reg := capsule.NewRegistry()
	var comb capsule.RoutineID
	if group {
		comb = RegisterGroupCombiner(reg, "policy-comb", r.pool, 0,
			func(c *capsule.Ctx, batch []Record) bool { note(c, batch); return true },
			func(c *capsule.Ctx) {
				// (b): the close fence comes before the first token store
				// of the window it closes.
				f0 := c.Mem().Stats.Fences
				c.Mem().Fence()
				for _, a := range r.applies[r.closed:] {
					for _, tok := range a.tokens {
						if r.done[tok-1].Load() != 0 {
							t.Errorf("token %d visible before its window's close returned", tok)
						}
					}
				}
				if r.shared != nil {
					if v := r.shared.Load(); v >= r.applies[r.closed].tokens[0] {
						t.Errorf("shared cell holds token %d before its window's close returned", v)
					}
				}
				if c.Mem().Stats.Fences != f0+1 {
					t.Error("close hook's fence not counted")
				}
				r.closes++
				r.closed = len(r.applies)
			})
	} else {
		comb = RegisterCombiner(reg, "policy-comb", r.pool, 0, note)
	}
	bases := capsule.AllocProcAreas(mem, 1)
	capsule.Install(r.port, bases[0], reg, comb)
	r.run = func() {
		r.rt.RunToCompletion(func(int) proc.Program {
			return func(p *proc.Proc) {
				if p.PeekCrashed() && r.onRestart != nil {
					r.onRestart()
				}
				capsule.NewMachine(p, reg, bases[0]).Run()
			}
		})
	}
	return r
}

// publish adds n records with fresh tokens, each with its own
// completion slot.
func (r *policyRig) publish(n int) {
	for i := 0; i < n; i++ {
		r.publishTo(&r.done[r.next])
	}
}

// publishTo adds one record with a fresh token per cell given, in order.
func (r *policyRig) publishTo(cells ...*atomic.Uint64) {
	for _, done := range cells {
		r.next++
		if !r.ring.TryPublish(Record{Op: OpPut, A: uint64(r.next), Token: uint64(r.next), Done: done}) {
			r.t.Fatal("policy rig: ring full")
		}
	}
}

// acked counts visible tokens and checks each is its own slot's.
func (r *policyRig) acked() int {
	n := 0
	for i := range r.done {
		switch v := r.done[i].Load(); v {
		case 0:
		case uint64(i + 1):
			n++
		default:
			r.t.Errorf("slot %d holds token %d", i+1, v)
		}
	}
	return n
}

func (r *policyRig) ackedExactly(lo, hi int) bool { // tokens lo..hi visible, no other
	for i := range r.done {
		if want := i+1 >= lo && i+1 <= hi; (r.done[i].Load() != 0) != want {
			return false
		}
	}
	return true
}

// spanBase is the combiner's step count at its first apply when a full
// batch is already waiting — no poll at all — measured on a fresh rig of
// the same kind. Every linger below is a difference from it.
func spanBase(t *testing.T, group bool) uint64 {
	r := newPolicyRig(t, group)
	r.publish(policyBatch)
	r.pool.MarkDone(0)
	r.run()
	if len(r.applies) != 1 || len(r.applies[0].tokens) != policyBatch {
		t.Fatalf("base run applied %+v, want one full batch", r.applies)
	}
	return r.applies[0].steps
}

// (a) and (b): with a full next batch waiting after apply the window
// stays open and the tokens are held; with less, closeWin runs once in
// that span and everything held is released after its fence.
func TestGroupCombinerClosesOnNoBacklog(t *testing.T) {
	r := newPolicyRig(t, true)
	r.publish(2*policyBatch + 1)
	r.pool.MarkDone(0)
	r.onApply = func(n int, c *capsule.Ctx) {
		switch n {
		case 1: // span 1 left 5 waiting: no close, 1..4 held
			if r.closes != 0 || r.acked() != 0 {
				t.Errorf("span 1 with a full batch waiting: closes=%d acked=%d, want 0 and 0", r.closes, r.acked())
			}
		case 2: // span 2 left 1 waiting: one close, 1..8 released
			if r.closes != 1 || !r.ackedExactly(1, 2*policyBatch) {
				t.Errorf("span 2 with one record waiting: closes=%d acked=%d, want 1 and tokens 1..8", r.closes, r.acked())
			}
		}
	}
	r.run()
	if len(r.applies) != 3 || r.closes != 2 || !r.ackedExactly(1, 2*policyBatch+1) {
		t.Fatalf("applies=%d closes=%d acked=%d, want 3, 2 and all 9", len(r.applies), r.closes, r.acked())
	}
	// The straggler of span 3 was alone at the start of its span: it
	// waited out the whole linger, no more.
	if got := r.applies[2].steps - r.applies[1].steps; got < groupIdleGrace || got > groupIdleGrace+16 {
		t.Errorf("lone record at span start applied %d steps after the previous apply, want the %d-poll linger plus one boundary", got, groupIdleGrace)
	}
}

// (c): the linger is bounded by groupIdleGrace polls from the start of
// the span, ends early on a full batch, and is spent while the ring is
// empty — a record arriving at a ring idle that long is applied on the
// poll that sees it.
func TestGroupCombinerLinger(t *testing.T) {
	base := spanBase(t, true)
	for _, tc := range []struct {
		name    string
		atStart int            // records waiting when the span begins
		arrive  map[uint64]int // poll -> records published during it
		want    uint64         // poll whose end the apply follows
		batch   int
	}{
		{"lone record waits out the linger", 1, nil, groupIdleGrace, 1},
		{"idle ring, late arrival", 0, map[uint64]int{groupIdleGrace + 5: 1}, groupIdleGrace + 5, 1},
		{"idle ring, arrival at the bound", 0, map[uint64]int{groupIdleGrace: 1}, groupIdleGrace, 1},
		{"arrival inside the linger waits for its end", 0, map[uint64]int{40: 1}, groupIdleGrace, 1},
		{"full batch ends the linger", 1, map[uint64]int{10: policyBatch - 1}, 10, policyBatch},
		{"trickle below a full batch does not", 1, map[uint64]int{10: 1, 20: 1}, groupIdleGrace, 3},
	} {
		r := newPolicyRig(t, true)
		r.publish(tc.atStart)
		last := uint64(0)
		for poll := range tc.arrive {
			last = max(last, poll)
		}
		for poll, n := range tc.arrive {
			r.script[base+poll] = func() {
				r.publish(n)
				if poll == last {
					r.pool.MarkDone(0)
				}
			}
		}
		if len(tc.arrive) == 0 {
			r.pool.MarkDone(0)
		}
		r.run()
		if len(r.applies) != 1 || len(r.applies[0].tokens) != tc.batch || r.applies[0].steps != base+tc.want {
			t.Errorf("%s: applies %+v (base %d), want one batch of %d after poll %d", tc.name, r.applies, base, tc.batch, tc.want)
		}
		if r.closes != 1 || r.acked() != r.next {
			t.Errorf("%s: closes=%d acked=%d of %d", tc.name, r.closes, r.acked(), r.next)
		}
	}
}

// RegisterCombiner's applier commits per batch: nothing to amortise, so
// no linger — a lone record is applied with zero polls, a late one on
// the poll that sees it.
func TestCombinerDoesNotLinger(t *testing.T) {
	base := spanBase(t, false)
	r := newPolicyRig(t, false)
	r.publish(1)
	r.pool.MarkDone(0)
	r.run()
	if len(r.applies) != 1 || r.applies[0].steps != base {
		t.Errorf("lone record: applies %+v, want one at step %d (zero polls)", r.applies, base)
	}
	if r.acked() != 1 {
		t.Errorf("lone record not acknowledged")
	}

	r = newPolicyRig(t, false)
	r.script[base+3] = func() { r.publish(1); r.pool.MarkDone(0) }
	r.run()
	if len(r.applies) != 1 || r.applies[0].steps != base+3 {
		t.Errorf("late record: applies %+v, want one at step %d", r.applies, base+3)
	}
}

// RegisterCombiner stores a Done cell once per run of consecutive
// records sharing it, with the run's last token, and only after apply
// returns: a batch on one cell leaves it at the batch's last token, and
// interleaved cells A, A, B, A each end at their own last token.
func TestCombinerSharedCells(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cells string // the batch's cell per record, in publish order
	}{
		{"one cell", "AAAA"},
		{"interleaved", "AABA"},
	} {
		r := newPolicyRig(t, false)
		cells := map[rune]*atomic.Uint64{'A': new(atomic.Uint64), 'B': new(atomic.Uint64)}
		want := map[rune]uint64{}
		for i, name := range tc.cells {
			r.publishTo(cells[name])
			want[name] = uint64(i + 1)
		}
		r.pool.MarkDone(0)
		r.onApply = func(int, *capsule.Ctx) {
			for name, cell := range cells {
				if v := cell.Load(); v != 0 {
					t.Errorf("%s: cell %c holds token %d before apply returned", tc.name, name, v)
				}
			}
		}
		r.run()
		if len(r.applies) != 1 || len(r.applies[0].tokens) != len(tc.cells) {
			t.Fatalf("%s: applies %+v, want one batch of %d", tc.name, r.applies, len(tc.cells))
		}
		for name, cell := range cells {
			if got := cell.Load(); got != want[name] {
				t.Errorf("%s: cell %c holds token %d, want %d", tc.name, name, got, want[name])
			}
		}
	}
}

// A cell shared by every record of a held window stays below the
// window's first token until its close returns (the rig's close hook
// checks), then holds the window's last token.
func TestGroupCombinerSharedCell(t *testing.T) {
	r := newPolicyRig(t, true)
	r.shared = new(atomic.Uint64)
	for i := 0; i < 2*policyBatch+1; i++ {
		r.publishTo(r.shared)
	}
	r.pool.MarkDone(0)
	r.onApply = func(n int, c *capsule.Ctx) {
		// Span 1 held tokens 1..4; span 2 closed and released 1..8.
		if want := []uint64{0, 0, 2 * policyBatch}; n < len(want) && r.shared.Load() != want[n] {
			t.Errorf("apply %d: shared cell holds %d, want %d", n, r.shared.Load(), want[n])
		}
	}
	r.run()
	if len(r.applies) != 3 || r.closes != 2 || r.shared.Load() != 2*policyBatch+1 {
		t.Fatalf("applies=%d closes=%d shared=%d, want 3, 2 and token %d",
			len(r.applies), r.closes, r.shared.Load(), 2*policyBatch+1)
	}
}

// A cell that is reserved but not yet released counts in Len and is not
// drainable: the combiner polls again and never applies an empty batch
// (the rig's applier fails the test on one), in both registrations.
func TestCombinerWaitsForReservedCell(t *testing.T) {
	for _, group := range []bool{false, true} {
		base := spanBase(t, group)
		r := newPolicyRig(t, group)
		r.ring.tail.Add(1) // TryPublish up to its reservation
		if r.ring.Len() != 1 || r.ring.Drain(make([]Record, 1)) != 0 {
			t.Fatal("reserved cell: want Len 1 and an empty Drain")
		}
		release := base + groupIdleGrace + 7 // past the linger: every poll from the bound on tries Drain
		r.script[release] = func() {
			r.ring.cells[0].rec = Record{Op: OpPut, Token: 1, Done: &r.done[0]}
			r.ring.cells[0].seq.Store(1)
			r.pool.MarkDone(0)
		}
		r.run()
		if len(r.applies) != 1 || r.applies[0].steps != release || len(r.applies[0].tokens) != 1 {
			t.Errorf("group=%v: applies %+v, want one record at step %d", group, r.applies, release)
		}
	}
}

// (d): a full-system crash advances the epoch; the replayed span drops
// the held tokens (their window died unfenced), and they are never
// stored, while operations of the new epoch complete as usual.
func TestGroupCombinerEpochDropsHeld(t *testing.T) {
	r := newPolicyRig(t, true)
	r.publish(2 * policyBatch)
	crashed := false
	r.onApply = func(n int, c *capsule.Ctx) {
		if n == 1 && !crashed { // tokens 1..4 held, 5..8 drained: crash before they apply
			crashed = true
			c.P().CrashNow()
			c.P().Step()
			t.Error("armed crash did not fire")
		}
	}
	r.onRestart = func() {
		r.publish(1)
		r.pool.MarkDone(0)
	}
	r.run()
	if r.rt.SystemCrashes() != 1 {
		t.Fatalf("%d system crashes, want 1", r.rt.SystemCrashes())
	}
	if len(r.applies) != 2 || r.closes != 1 || !r.ackedExactly(2*policyBatch+1, 2*policyBatch+1) {
		t.Fatalf("applies=%d closes=%d acked=%d: want the first batch, then only the post-crash record applied, closed and acknowledged",
			len(r.applies), r.closes, r.acked())
	}
}

// The cell ticket is the ring's only gate. Over four laps of a
// capacity-4 ring, so every cell's ticket wraps: a full ring refuses a
// publish, each Drain of one record admits exactly one publish, records
// leave in publish order, and Len is exact at rest.
func TestRingTicketGate(t *testing.T) {
	r := NewRing(4)
	capacity := uint64(r.Cap())
	buf := make([]Record, 1)
	var published, drained uint64
	pub := func() bool {
		if !r.TryPublish(Record{A: published}) {
			return false
		}
		published++
		return true
	}
	for published < capacity {
		if !pub() {
			t.Fatalf("empty ring refused publish %d", published)
		}
	}
	for drained < 4*capacity {
		if pub() {
			t.Fatalf("full ring (Len %d) accepted ticket %d", r.Len(), published-1)
		}
		if r.Len() != int(capacity) {
			t.Fatalf("full ring: Len = %d, want %d", r.Len(), capacity)
		}
		if r.Drain(buf) != 1 || buf[0].A != drained {
			t.Fatalf("Drain(1) after %d drained: got record %d", drained, buf[0].A)
		}
		drained++
		if r.Len() != int(capacity)-1 {
			t.Fatalf("after Drain(1): Len = %d, want %d", r.Len(), capacity-1)
		}
		if !pub() {
			t.Fatalf("ring with one free cell refused ticket %d", published)
		}
		if pub() {
			t.Fatalf("ring with one free cell accepted two publishes (ticket %d)", published-1)
		}
	}
	all := make([]Record, capacity)
	if n := r.Drain(all); n != int(capacity) || r.Len() != 0 || r.Drain(all) != 0 {
		t.Fatalf("draining a full ring: got %d, then Len = %d", n, r.Len())
	}
	for i, rec := range all {
		if rec.A != drained+uint64(i) {
			t.Fatalf("final drain: record %d at position %d, want %d", rec.A, i, drained+uint64(i))
		}
	}
}

// Len under concurrent publishers (run with -race): it never reports
// fewer records than have been completely published and not yet drained,
// so whatever Drain then returns was counted; and at rest it is exact.
func TestRingLenConcurrentPublishers(t *testing.T) {
	checkConcurrentPublishers(t, 4, 5000, 64)
}

// Four producers on a capacity-2 ring lap each other and the consumer
// constantly, so every cell's ticket is contended on every lap; still
// each producer's records arrive in order, none lost or duplicated.
func TestRingLappingPublishers(t *testing.T) {
	checkConcurrentPublishers(t, 4, 2000, 2)
}

// checkConcurrentPublishers runs `producers` goroutines, each publishing
// `each` records into one ring of the given capacity, against a draining
// consumer. It checks per-producer FIFO order and that every record
// arrives (so none is lost or duplicated), that Len never under-reports
// or exceeds the capacity, and that Len is exact at rest.
func checkConcurrentPublishers(t *testing.T, producers, each, capacity int) {
	r := NewRing(capacity)
	var published atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Publish(Record{Pid: int32(p), A: uint64(i)}, nil)
				published.Add(1)
			}
		}()
	}
	buf := make([]Record, 16)
	last := make([]int64, producers)
	for i := range last {
		last[i] = -1
	}
	drained := int64(0)
	for drained < int64(producers*each) {
		p := published.Load()
		l := int64(r.Len())
		if l < p-drained {
			t.Fatalf("Len = %d with %d published and %d drained: under-reports by %d", l, p, drained, p-drained-l)
		}
		if l > int64(r.Cap()) {
			t.Fatalf("Len = %d exceeds capacity %d", l, r.Cap())
		}
		n := r.Drain(buf[:min(int(l), len(buf))])
		for _, rec := range buf[:n] {
			if int64(rec.A) != last[rec.Pid]+1 {
				t.Fatalf("producer %d: record %d after %d", rec.Pid, rec.A, last[rec.Pid])
			}
			last[rec.Pid] = int64(rec.A)
		}
		drained += int64(n)
		if n == 0 {
			runtime.Gosched()
		}
	}
	wg.Wait()
	for p, l := range last {
		if l != int64(each-1) {
			t.Fatalf("producer %d: last record %d, want %d", p, l, each-1)
		}
	}
	if r.Len() != 0 || r.Drain(buf) != 0 {
		t.Fatalf("ring at rest: Len = %d, want 0 and an empty Drain", r.Len())
	}
	r.Publish(Record{}, nil)
	r.Publish(Record{}, nil)
	if r.Len() != 2 || r.Drain(buf) != 2 || r.Len() != 0 {
		t.Fatal("ring at rest: Len does not equal what Drain returns")
	}
}

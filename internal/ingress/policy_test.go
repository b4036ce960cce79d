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

// publish adds n records with fresh tokens and completion slots.
func (r *policyRig) publish(n int) {
	for i := 0; i < n; i++ {
		r.next++
		if !r.ring.TryPublish(Record{Op: OpPut, A: uint64(r.next), Token: uint64(r.next), Done: &r.done[r.next-1]}) {
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

// Len under concurrent publishers (run with -race): it never reports
// fewer records than have been completely published and not yet drained,
// so whatever Drain then returns was counted; and at rest it is exact.
func TestRingLenConcurrentPublishers(t *testing.T) {
	const producers, each = 4, 5000
	r := NewRing(64)
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
	for drained < producers*each {
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
	if r.Len() != 0 || r.Drain(buf) != 0 {
		t.Fatalf("ring at rest: Len = %d, want 0 and an empty Drain", r.Len())
	}
	r.Publish(Record{}, nil)
	r.Publish(Record{}, nil)
	if r.Len() != 2 || r.Drain(buf) != 2 || r.Len() != 0 {
		t.Fatal("ring at rest: Len does not equal what Drain returns")
	}
}

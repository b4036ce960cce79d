package history

import (
	"testing"

	"delayfree/internal/pmem"
)

func TestRecorderMergeAndOrder(t *testing.T) {
	r := NewRecorder(2, 0)
	var st pmem.Stats
	r.Invoke(0, OpEnq, 0, 100, 0, st)
	st.Flushes, st.Fences = 3, 1
	r.Return(0, OpEnq, 0, true, 0, st)
	r.Invoke(1, OpEnq, 0, 200, 0, st)
	r.Crash()
	r.Restart(1)
	r.Invoke(1, OpEnq, 0, 200, 0, st) // capsule replay after the crash
	r.Return(1, OpEnq, 0, true, 0, st)

	h := r.History()
	if len(h.Ops) != 2 {
		t.Fatalf("merged %d ops, want 2: %+v", len(h.Ops), h.Ops)
	}
	if h.Restarts != 1 || len(h.Crashes) != 1 || r.Epochs() != 1 {
		t.Fatalf("restarts=%d crashes=%d epochs=%d, want 1/1/1", h.Restarts, len(h.Crashes), r.Epochs())
	}
	a, b := h.Ops[0], h.Ops[1]
	if a.Proc != 0 || a.Arg != 100 || !a.Returned || a.Flushes != 3 || a.Fences != 1 {
		t.Fatalf("op A mangled: %+v", a)
	}
	if b.Proc != 1 || b.Invokes != 2 || b.Returns != 1 || b.ReplayMismatch {
		t.Fatalf("op B merge wrong: %+v", b)
	}
	// Conservative interval: first invoke (pre-crash) to last return.
	if b.InvEpoch != 0 || b.RetEpoch != 1 {
		t.Fatalf("op B epochs: inv=%d ret=%d, want 0/1", b.InvEpoch, b.RetEpoch)
	}
	// A returned (ticket 2) before B's first invoke (ticket 3).
	if !a.Precedes(&b) {
		t.Fatalf("A (ret %d) should precede B (inv %d)", a.RetTicket, b.InvTicket)
	}
	// The crash marker sits strictly inside B's merged interval.
	if !b.CrashedBetween(h.Crashes) {
		t.Fatal("crash marker should fall inside B's interval")
	}
	if a.CrashedBetween(h.Crashes) {
		t.Fatal("crash marker should not fall inside A's interval")
	}
}

func TestRecorderReplayMismatch(t *testing.T) {
	r := NewRecorder(1, 0)
	var st pmem.Stats
	r.Invoke(0, OpDeq, 7, 0, 0, st)
	r.Return(0, OpDeq, 7, true, 42, st)
	r.Return(0, OpDeq, 7, true, 43, st) // replay observed a different value
	h := r.History()
	if len(h.Ops) != 1 || !h.Ops[0].ReplayMismatch {
		t.Fatalf("replay mismatch not detected: %+v", h.Ops)
	}
}

// TestRecorderDisabledZeroAllocs pins the disabled-recorder cost on the
// driver hot path at exactly zero allocations: a nil *Recorder is the
// "audit off" configuration every non-audited stress round and bench
// runs with, so its methods must stay free.
func TestRecorderDisabledZeroAllocs(t *testing.T) {
	var r *Recorder
	var st pmem.Stats
	allocs := testing.AllocsPerRun(100, func() {
		r.Invoke(0, OpEnq, 1, 2, 0, st)
		r.Return(0, OpEnq, 1, true, 0, st)
		r.Restart(0)
		r.Crash()
	})
	if allocs != 0 {
		t.Errorf("disabled recorder allocates %.1f per op event, want 0", allocs)
	}
}

// TestRecorderEnabledZeroAllocs pins the enabled cost: all log memory
// is pre-allocated, so recording allocates nothing and appends exactly
// one event per Invoke/Return call.
func TestRecorderEnabledZeroAllocs(t *testing.T) {
	r := NewRecorder(1, 1<<12)
	var st pmem.Stats
	allocs := testing.AllocsPerRun(100, func() {
		r.Invoke(0, OpEnq, 1, 2, 0, st)
		r.Return(0, OpEnq, 1, true, 0, st)
	})
	if allocs != 0 {
		t.Errorf("enabled recorder allocates %.1f per op event, want 0", allocs)
	}
	before := r.Events()
	r.Invoke(0, OpDeq, 9, 0, 0, st)
	r.Return(0, OpDeq, 9, true, 1, st)
	if got := r.Events() - before; got != 2 {
		t.Errorf("2 op events appended %d log entries, want exactly 2 (one append per event)", got)
	}
}

func TestRecorderOverflow(t *testing.T) {
	r := NewRecorder(1, 4)
	var st pmem.Stats
	for i := uint64(0); i < 10; i++ {
		r.Invoke(0, OpEnq, i, i, 0, st)
	}
	if r.Events() != 4 {
		t.Fatalf("fixed-capacity log grew: %d events, want 4", r.Events())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped %d, want 6", r.Dropped())
	}
	if h := r.History(); h.Dropped != 6 {
		t.Fatalf("history reports %d dropped, want 6", h.Dropped)
	}
}

func TestStressCapacityFloor(t *testing.T) {
	if c := StressCapacity(0, 0, 0); c != DefaultCapacity {
		t.Fatalf("zero-config capacity %d, want the default %d", c, DefaultCapacity)
	}
	if c := StressCapacity(1000, 5000, 2500); c <= DefaultCapacity {
		t.Fatalf("big quota capacity %d should exceed the default", c)
	}
	// The per-crash allowance follows the gap: a longer gap fits more
	// operations between two crashes.
	if short, long := StressCapacity(0, 2000, 2800), StressCapacity(0, 2000, 5600); long <= short {
		t.Fatalf("capacity %d at gap 5600, %d at gap 2800: allowance does not grow with the gap", long, short)
	}
}

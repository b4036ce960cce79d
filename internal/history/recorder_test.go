package history

import (
	"testing"

	"delayfree/internal/pmem"
)

func TestRecorderMergeAndOrder(t *testing.T) {
	r := NewRecorder(2)
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
	if h.Restarts != 1 || len(h.Crashes) != 1 || h.Crashes[0].Epoch != 1 {
		t.Fatalf("restarts=%d crashes=%+v, want 1 restart and one crash marker at epoch 1", h.Restarts, h.Crashes)
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
	r := NewRecorder(1)
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
// driver hot path at exactly zero allocations: a nil *Recorder is what
// a hand-built Round (the recovery probe, driver tests and sweeps) runs
// with, so its methods must stay free.
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

// TestRecorderEnabledZeroAllocs pins the enabled cost: a log grows by
// doubling, so recording allocates nothing per event amortized
// (AllocsPerRun divides the few growth allocations across 4096 runs),
// and appends exactly one event per Invoke/Return call.
func TestRecorderEnabledZeroAllocs(t *testing.T) {
	r := NewRecorder(1)
	var st pmem.Stats
	allocs := testing.AllocsPerRun(1<<12, func() {
		r.Invoke(0, OpEnq, 1, 2, 0, st)
		r.Return(0, OpEnq, 1, true, 0, st)
	})
	if allocs != 0 {
		t.Errorf("enabled recorder allocates %.1f per op event, want 0 amortized", allocs)
	}
	r.Invoke(0, OpDeq, 9, 0, 0, st)
	r.Return(0, OpDeq, 9, true, 1, st)
	// AllocsPerRun makes one warm-up run before the counted ones.
	h := r.History()
	if len(h.Ops) != 2 || h.Ops[0].Invokes != 1<<12+1 || h.Ops[0].Returns != 1<<12+1 ||
		h.Ops[1].Invokes != 1 || h.Ops[1].Returns != 1 {
		t.Errorf("ops %+v: want each Invoke/Return call recorded exactly once", h.Ops)
	}
}

// oldLogCap is the per-process log capacity recorders once had, past
// which events were dropped; the tests below record beyond it.
const oldLogCap = 1 << 16

// TestRecorderOverflow: a process recording more events than the old
// fixed log held keeps every one, and all of them merge into ops.
func TestRecorderOverflow(t *testing.T) {
	r := NewRecorder(1)
	var st pmem.Stats
	const n = oldLogCap/2 + 10
	for i := uint64(0); i < n; i++ {
		r.Invoke(0, OpEnq, i, i, 0, st)
		r.Return(0, OpEnq, i, true, 0, st)
	}
	h := r.History()
	if len(h.Ops) != n {
		t.Fatalf("merged %d ops, want %d", len(h.Ops), n)
	}
	for i, op := range h.Ops {
		if op.ID != uint64(i) || op.Arg != uint64(i) || !op.Returned || op.Invokes != 1 || op.Returns != 1 {
			t.Fatalf("op %d mangled: %+v", i, op)
		}
	}
}

// TestStressCapacityFloor: a multi-process history with more events per
// process than the old log capacity and more crash markers than the old
// crash-log capacity (1<<14) loses nothing.
func TestStressCapacityFloor(t *testing.T) {
	const procs, perProc, crashes = 3, oldLogCap/2 + 1, 1<<14 + 1
	r := NewRecorder(procs)
	var st pmem.Stats
	for i := uint64(0); i < perProc; i++ {
		for p := 0; p < procs; p++ {
			r.Invoke(p, OpPut, i, i, uint64(p), st)
			r.Return(p, OpPut, i, true, 0, st)
		}
		if i < crashes {
			r.Crash()
		}
	}
	h := r.History()
	if len(h.Crashes) != crashes || h.Crashes[crashes-1].Epoch != crashes {
		t.Fatalf("%d crash markers; want %d, the last at epoch %d", len(h.Crashes), crashes, crashes)
	}
	if len(h.Ops) != procs*perProc {
		t.Fatalf("merged %d ops, want %d", len(h.Ops), procs*perProc)
	}
	for _, op := range h.Ops {
		if !op.Returned || op.Invokes != 1 || op.Returns != 1 || op.Arg2 != uint64(op.Proc) {
			t.Fatalf("op mangled: %+v", op)
		}
	}
}

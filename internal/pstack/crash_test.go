package pstack

import (
	"testing"

	"delayfree/internal/workload"
)

// TestCrashStressShared is the stack family's acceptance workload,
// mirroring internal/pmap/crash_test.go: full-system crashes in the
// shared-cache model (every crash drops a random prefix of each dirty
// cache line) with the conservation check over persisted driver
// accounting — no push or pop lost, duplicated or corrupted.
func TestCrashStressShared(t *testing.T) {
	crashes := 400
	if testing.Short() {
		crashes = 80
	}
	rep, err := workload.RunRound(stressSpec(New), workload.StressConfig{
		Procs:   4,
		Ops:     150,
		Crashes: crashes,
		Seed:    1,
		Shared:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes < uint64(crashes) {
		t.Fatalf("only %d crashes injected", rep.Crashes)
	}
	t.Logf("crashes=%d restarts=%d ops=%d", rep.Crashes, rep.Restarts, rep.Ops)
}

// TestCrashStressPrivate runs the same check in the private (PPM)
// model with full two-copy frames and *independent* per-process
// crashes: one process recovers its capsule while the others keep
// mutating the stack, and the machinery still has to deliver
// exactly-once pushes and pops.
func TestCrashStressPrivate(t *testing.T) {
	crashes := 200
	if testing.Short() {
		crashes = 50
	}
	rep, err := workload.RunRound(stressSpec(New), workload.StressConfig{
		Procs:   3,
		Ops:     120,
		Crashes: crashes,
		Seed:    42,
		Shared:  false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restarts < uint64(crashes) {
		t.Fatalf("only %d restarts injected", rep.Restarts)
	}
}

// TestStresserRegistered pins the family's exported stressers, which
// the harness stresser table (and so crashstress) lists.
func TestStresserRegistered(t *testing.T) {
	specs := StressSpecs()
	if len(specs) != 2 || specs[0].Name != "pstack-batched" || specs[1].Name != "pstack" {
		t.Fatalf("stack stressers: %+v", specs)
	}
	for _, s := range specs {
		if s.Family != "stack" || s.Checker == nil {
			t.Fatalf("%s: family %q, checker set %v", s.Name, s.Family, s.Checker != nil)
		}
	}
}

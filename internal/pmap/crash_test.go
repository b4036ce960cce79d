package pmap

import (
	"testing"

	"delayfree/internal/workload"
)

// TestCrashStressShared is the acceptance workload: ≥1000 full-system
// crashes across 4 processes in the shared-cache model (every crash
// drops a random prefix of each dirty cache line), with the recovered
// map required to equal the shadow model exactly — no operation lost,
// duplicated or corrupted.
func TestCrashStressShared(t *testing.T) {
	crashes := 1000
	if testing.Short() {
		crashes = 150
	}
	rep, err := workload.RunRound(stressSpec("pmap", stressGeom{shards: 2, buckets: 256, readPct: 25}), workload.StressConfig{
		Procs:   4,
		Ops:     500,
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

// TestCrashStressPrivate runs the same exactness check in the private
// (PPM) model with full two-copy frames: crashes destroy volatile
// state only, but the capsule machinery and the writable-CAS pool
// recovery still have to deliver effectively-once operations.
func TestCrashStressPrivate(t *testing.T) {
	crashes := 300
	if testing.Short() {
		crashes = 60
	}
	rep, err := workload.RunRound(stressSpec("pmap", stressGeom{shards: 1, buckets: 128, readPct: 25}), workload.StressConfig{
		Procs:   4,
		Ops:     300,
		Crashes: crashes,
		Seed:    42,
		Shared:  false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes < uint64(crashes) {
		t.Fatalf("only %d crashes injected", rep.Crashes)
	}
}

// TestCrashStressReadHeavy is the read-only fast lane's exactness
// acceptance: 90%-Get scripts in the shared-cache model, so nearly
// every capsule terminal rides the elided tier (volatile restart-point
// advance, flush-free wcas reads) while full-system crashes land all
// over the elided spans. The recovered map must still match the shadow
// model exactly — elision must never lose, duplicate or corrupt the
// effectful minority.
func TestCrashStressReadHeavy(t *testing.T) {
	crashes := 600
	if testing.Short() {
		crashes = 100
	}
	rep, err := workload.RunRound(stressSpec("pmap", stressGeom{shards: 2, buckets: 256, readPct: 90}), workload.StressConfig{
		Procs:   4,
		Ops:     500,
		Crashes: crashes,
		Seed:    11,
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

// TestCrashStressOddGeometry covers process counts and capacities whose
// writable-CAS regions are not cache-line aligned (the P=3 layout that
// once lost its init image at the first crash).
func TestCrashStressOddGeometry(t *testing.T) {
	crashes := 120
	if testing.Short() {
		crashes = 40
	}
	rep, err := workload.RunRound(stressSpec("pmap", stressGeom{shards: 1, buckets: 137, readPct: 25, fullFrames: true}), workload.StressConfig{
		Procs:   3,
		Ops:     200,
		Crashes: crashes,
		Seed:    7,
		Shared:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes < uint64(crashes) {
		t.Fatalf("only %d crashes injected", rep.Crashes)
	}
}

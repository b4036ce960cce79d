package harness

import (
	"path/filepath"
	"testing"

	"delayfree/internal/workload"
)

// TestNoAuditCoverageGaps: every workload family is crash-stressed, so
// every family's ordering audit runs — RunRound refuses a stresser
// without its durable-linearizability checker (see DESIGN.md, "Adding a
// workload family").
func TestNoAuditCoverageGaps(t *testing.T) {
	stressed := map[string]bool{}
	for _, s := range Stressers() {
		stressed[s.Family] = true
	}
	for _, b := range Kinds() {
		if !stressed[b.Family] {
			t.Errorf("family %q has a kind (%s) but no stresser", b.Family, b.Kind)
		}
	}
}

// TestAuditedRoundsPass runs one audited crash-stress round per
// stresser at the default seed: the round must absorb its
// crash quota AND the recorded history must satisfy the family's
// durable-linearizability checker plus the detectability cross-check.
// This is the acceptance gate for `crashstress -audit order` — every
// smoke round must stay clean at the default seed.
func TestAuditedRoundsPass(t *testing.T) {
	for _, s := range Stressers() {
		s := s
		for _, shared := range []bool{false, true} {
			shared := shared
			label := "private"
			if shared {
				label = "shared"
			}
			t.Run(s.Name+"/"+label, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				rep, err := workload.RunRound(s, workload.StressConfig{
					Procs: 2, Ops: 20, Crashes: 25, Seed: 1, Shared: shared,
					Audit: true, ArtifactDir: dir,
				})
				if err != nil {
					if arts, _ := filepath.Glob(filepath.Join(dir, "history-*.json")); len(arts) > 0 {
						t.Logf("failing-history artifacts: %v", arts)
					}
					t.Fatalf("audited round failed: %v", err)
				}
				if rep.Ops == 0 {
					t.Fatal("round reports zero operations")
				}
				if rep.Stats.Fences == 0 {
					t.Fatal("round reports zero fences; Stats plumbing is broken")
				}
			})
		}
	}
}

// TestLongExposureRoundFitsRecorder runs the long-exposure round CI
// runs (one process, 2000 crashes): the script loops until the quota is
// met, so the recorded history grows with the quota and with how many
// operations fit a crash gap — past the 1<<16 events a process log once
// held before it dropped the rest. The recorder's logs grow, so the
// audit checks every one of them, and the Call/Return protocol must
// stay exact over some 130 000 operations per model.
func TestLongExposureRoundFitsRecorder(t *testing.T) {
	if testing.Short() {
		t.Skip("2000-crash rounds")
	}
	s, ok := Stresser("pstack")
	if !ok {
		t.Fatal("no pstack stresser")
	}
	for _, shared := range []bool{false, true} {
		rep, err := workload.RunRound(s, workload.StressConfig{
			Procs: 1, Crashes: 2000, Seed: 3, Shared: shared,
			Audit: true, ArtifactDir: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("shared=%v: %v", shared, err)
		}
		// Two events per operation: more than 1<<15 operations is more
		// than the old log could hold.
		if rep.Ops <= 1<<15 {
			t.Fatalf("shared=%v: only %d operations; the round no longer outgrows the old log", shared, rep.Ops)
		}
	}
}

// benchRound runs one pstack crash-stress round, the heaviest audited
// family; `go test -run '^$' -bench CrashStress ./internal/harness`
// measures the recorder's end-to-end overhead (audit off vs on).
func benchRound(b *testing.B, audit bool) {
	s, ok := Stresser("pstack")
	if !ok {
		b.Fatal("no pstack stresser")
	}
	var ops uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := workload.RunRound(s, workload.StressConfig{
			Procs: 4, Ops: 200, Crashes: 250, Seed: 1, Shared: true,
			Audit: audit, ArtifactDir: b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		ops += rep.Ops
	}
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "ops/s")
}

func BenchmarkCrashStressAuditOff(b *testing.B) { benchRound(b, false) }
func BenchmarkCrashStressAuditOn(b *testing.B)  { benchRound(b, true) }

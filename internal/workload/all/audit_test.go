package all

import (
	"path/filepath"
	"testing"

	"delayfree/internal/workload"
)

// TestNoAuditCoverageGaps: every workload family is crash-stressed, so
// every family's ordering audit runs — a stresser cannot register
// without its durable-linearizability checker (see DESIGN.md, "Adding a
// workload family").
func TestNoAuditCoverageGaps(t *testing.T) {
	stressed := map[string]bool{}
	for _, s := range workload.Stressers() {
		stressed[s.Family] = true
	}
	for _, f := range workload.Families() {
		if !stressed[f] {
			t.Errorf("family %q has no stresser", f)
		}
	}
}

// TestAuditedRoundsPass runs one audited crash-stress round per
// registered stresser at the default seed: the round must absorb its
// crash quota AND the recorded history must satisfy the family's
// durable-linearizability checker plus the detectability cross-check.
// This is the acceptance gate for `crashstress -audit order` — every
// smoke round must stay clean at the default seed.
func TestAuditedRoundsPass(t *testing.T) {
	for _, s := range workload.Stressers() {
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
// operations fit a crash gap. The recorder must be sized for that — an
// overflow fails the audit — and the Call/Return protocol must stay
// exact over some 130 000 operations per model.
func TestLongExposureRoundFitsRecorder(t *testing.T) {
	if testing.Short() {
		t.Skip("2000-crash rounds")
	}
	s, ok := workload.LookupStresser("pstack")
	if !ok {
		t.Fatal("pstack stresser not registered")
	}
	for _, shared := range []bool{false, true} {
		if _, err := workload.RunRound(s, workload.StressConfig{
			Procs: 1, Crashes: 2000, Seed: 3, Shared: shared,
			Audit: true, ArtifactDir: t.TempDir(),
		}); err != nil {
			t.Fatalf("shared=%v: %v", shared, err)
		}
	}
}

// benchRound runs one pstack crash-stress round, the heaviest audited
// family; `go test -bench CrashStress ./internal/workload/all` measures
// the recorder's end-to-end overhead (audit off vs on).
func benchRound(b *testing.B, audit bool) {
	s, ok := workload.LookupStresser("pstack")
	if !ok {
		b.Fatal("pstack stresser not registered")
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

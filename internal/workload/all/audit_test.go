package all

import (
	"path/filepath"
	"strings"
	"testing"

	"delayfree/internal/workload"
)

// TestNoAuditCoverageGaps fails the moment a stresser is registered for
// a family without a durable-linearizability checker — the same gate
// `crashstress` enforces at startup (exit 2). Adding a workload family
// means registering its HistoryChecker first; see DESIGN.md, "Adding a
// workload family".
func TestNoAuditCoverageGaps(t *testing.T) {
	if gaps := workload.AuditCoverageGaps(); len(gaps) != 0 {
		t.Fatalf("stressers without an audit checker: %v", gaps)
	}
	if len(workload.Stressers()) == 0 {
		t.Fatal("no stressers registered")
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
		if _, ok := workload.LookupHistoryChecker(s.Family); !ok {
			t.Errorf("stresser %q family %q has no history checker registered", s.Name, s.Family)
			continue
		}
		for _, shared := range []bool{false, true} {
			shared := shared
			label := "private"
			if shared {
				label = "shared"
			}
			t.Run(s.Name+"/"+label, func(t *testing.T) {
				t.Parallel()
				// Unbatched queue rounds run quota-less (single batch): the
				// family's known latent violation occasionally livelocks
				// quota-driven retry loops (see ROADMAP open items), exactly
				// as in CI's smoke. The batched queue front-end has no retry
				// loop (producers abandon, never republish), so it keeps the
				// quota like the map/stack rounds, and every round genuinely
				// recovers.
				crashes := 25
				if s.Family == "queue" && !strings.HasPrefix(s.Name, "pqueue-batched") {
					crashes = 0
				}
				dir := t.TempDir()
				rep, err := s.Run(workload.StressConfig{
					Procs: 2, Ops: 20, Crashes: crashes, Seed: 1, Shared: shared,
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
		if _, err := s.Run(workload.StressConfig{
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
		rep, err := s.Run(workload.StressConfig{
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

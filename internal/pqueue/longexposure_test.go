package pqueue

import (
	"os"
	"path/filepath"
	"testing"

	"delayfree/internal/workload"
)

// TestQueueLatentViolationKnownIssue documents a latent queue-family
// exactness violation in the shared-cache model, surfaced by the
// workload registry's crash stress once its check was hardened to
// audit *durable* state (a final full-system crash before the
// comparison): at crash-prone seeds (currently 4, 13, 27 with Procs 2,
// Ops 20 — the lethal crash points drift as unrelated code changes
// shift step counts), a round ends with one value still in the queue
// while another value is delivered twice — the same dup+stranded
// signature the stack family exhibited before the rcas
// evidence-ordering and qnode allocator-fence fixes, which the stack
// now passes 120/120 under identical machinery.
//
// The history audit has now traced the failure precisely (see
// ROADMAP.md): at every failing seed the checker reports exactly one
// dup-delivery violation whose first witness is a dequeue *straddling a
// full-system crash* (the crash marker ticket falls strictly inside the
// dequeue's invoke-return interval), with a second process re-delivering
// the same value after the crash and one later enqueue's value left
// stranded in the queue. That pins the suspect to the dequeue
// helping/replay path across recovery, not the enqueue side. Tracked in
// ROADMAP.md open items; CI's crashstress smoke runs at the default
// seed, whose crash points avoid the lethal window.
//
// Capture workflow:
//
//	QUEUE_TRACE=1 QUEUE_TRACE_DIR=/tmp/traces go test ./internal/pqueue -run KnownIssue -v
//
// Each failing seed now records a full operation history (Audit: true)
// and dumps a machine-readable minimal failing trace —
// history-general-seed<N>-shared.json, listing the durable-
// linearizability violations, the witness operations with their
// tickets/epochs, the recovered residue, and the round's pmem counters
// — into the artifact directory the test logs. The same audit runs in
// any stress round via `crashstress -audit order`.
func TestQueueLatentViolationKnownIssue(t *testing.T) {
	if os.Getenv("QUEUE_TRACE") == "" {
		t.Skip("known latent queue-family exactness violation under shared-model crashes; see ROADMAP.md open items (set QUEUE_TRACE=1 to capture failing histories)")
	}
	dir := t.TempDir()
	if env := os.Getenv("QUEUE_TRACE_DIR"); env != "" {
		dir = env // survive the test run for offline analysis
	}
	for _, seed := range []int64{4, 13, 27} {
		if _, err := workload.RunStress("general",
			workload.StressConfig{Procs: 2, Ops: 20, Seed: seed, Shared: true,
				Audit: true, ArtifactDir: dir}); err != nil {
			t.Errorf("seed=%d: %v", seed, err)
		}
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "history-*.json")); len(matches) > 0 {
		t.Logf("failing-history artifacts: %v", matches)
	}
}

// TestQueueSeedSweep re-derives the failing-seed set the KnownIssue
// test and the ROADMAP note cite. The lethal crash points drift
// whenever unrelated code changes shift step counts, so the hardcoded
// seed list above goes stale; run this sweep after any change that
// touches the queue, rcas or capsule step sequences and refresh both
// places from its output:
//
//	QUEUE_SEED_SWEEP=1 go test ./internal/pqueue -run SeedSweep -v
//
// It sweeps seeds 0..40 under the KnownIssue configuration (Procs 2,
// Ops 20, shared model, full history audit) and prints the seeds whose
// rounds violate durable linearizability. An empty failing set is the
// signal that the latent violation has been fixed — at that point the
// KnownIssue scaffolding and the ROADMAP open item should be retired.
func TestQueueSeedSweep(t *testing.T) {
	if os.Getenv("QUEUE_SEED_SWEEP") == "" {
		t.Skip("seed-sweep helper; set QUEUE_SEED_SWEEP=1 to re-derive the failing-seed set (see ROADMAP.md)")
	}
	var failing []int64
	for seed := int64(0); seed <= 40; seed++ {
		_, err := workload.RunStress("general",
			workload.StressConfig{Procs: 2, Ops: 20, Seed: seed, Shared: true,
				Audit: true, ArtifactDir: t.TempDir()})
		if err != nil {
			failing = append(failing, seed)
			t.Logf("seed=%d FAILS: %v", seed, err)
		}
	}
	if len(failing) == 0 {
		t.Log("no failing seeds in 0..40: refresh KnownIssue and close the ROADMAP item")
	} else {
		t.Logf("failing seeds (procs=2, ops=20, shared): %v", failing)
	}
}

package harness

import (
	"bytes"
	"strings"
	"testing"

	"delayfree/internal/workload"
)

// smallCfg keeps unit-test runs quick; the real parameters live in
// cmd/benchfigs and bench_test.go.
func smallCfg() Config {
	return Config{
		Threads:    2,
		Pairs:      300,
		FlushDelay: 10,
		FenceDelay: 5,
		Params: workload.Params{
			"seed-nodes": 500,
			"read-pct":   50,
			"map-keys":   128,
			"map-shards": 2,
			"stack-seed": 200,
		},
	}
}

// TestRegistrySmoke runs every registered kind — current and future
// families alike — at a tiny config and asserts non-zero throughput
// and sane stats, catching wiring regressions the moment a family is
// registered.
func TestRegistrySmoke(t *testing.T) {
	benchers := workload.Benchers()
	if len(benchers) < 16 {
		t.Fatalf("only %d kinds registered", len(benchers))
	}
	for _, b := range benchers {
		t.Run(b.Kind, func(t *testing.T) {
			if b.Family == "" {
				t.Fatal("kind has no family")
			}
			r, err := Run(b.Kind, smallCfg())
			if err != nil {
				t.Fatal(err)
			}
			if r.Kind != b.Kind {
				t.Fatalf("result kind %q", r.Kind)
			}
			if r.Ops != 2*2*300 {
				t.Fatalf("ops=%d", r.Ops)
			}
			if r.Elapsed <= 0 {
				t.Fatal("no elapsed time")
			}
			if r.MopsPerSec() <= 0 {
				t.Fatal("no throughput")
			}
			if r.Stats.Steps == 0 {
				t.Fatal("no memory operations recorded")
			}
		})
	}
}

func TestUnknownKind(t *testing.T) {
	if _, err := Run("nope", smallCfg()); err == nil {
		t.Fatal("expected error")
	}
}

func TestPersistenceCostOrdering(t *testing.T) {
	// The figures' shape is driven by per-op persistence work; pin the
	// orderings the paper reports.
	cfg := smallCfg()
	cfg.Threads = 1
	res := map[string]Result{}
	for _, k := range AllKinds() {
		r, err := Run(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res[k] = r
	}
	// The volatile baselines persist nothing; every recoverable kind of
	// each family pays real persistence work.
	for _, k := range []string{KindMSQ, KindMapVolatile, KindStackVolatile} {
		if res[k].FlushesPerOp() != 0 {
			t.Fatalf("%s flushes/op = %f", k, res[k].FlushesPerOp())
		}
	}
	for _, k := range []string{KindPmap, KindPStack, KindPStackOpt} {
		if res[k].FlushesPerOp() <= 0 {
			t.Fatalf("%s persistence costs missing: %f flushes/op", k, res[k].FlushesPerOp())
		}
	}
	// The stack's generator boundaries always persist (the generators
	// write node state ahead of their recoverable CAS). The map's probe
	// boundaries ride the read-only tier against a pre-filled table —
	// no claims, so every probe elides — and its write capsules complete
	// lightly under Invoke, so pmap shows elided terminals instead of
	// persisted ones while still paying the durability flushes above.
	for _, k := range []string{KindPStack, KindPStackOpt} {
		if res[k].BoundariesPerOp() <= 0 {
			t.Fatalf("%s boundaries/op = %f", k, res[k].BoundariesPerOp())
		}
	}
	if res[KindPmap].ElidedBoundariesPerOp() <= 0 {
		t.Fatalf("pmap elided/op = %f, want > 0 (probes ride the read-only tier)",
			res[KindPmap].ElidedBoundariesPerOp())
	}
	// Within a variant, manual flush placement beats the Izraelevitz
	// construction's flush-every-access (the Figure 5 vs Figure 6
	// contrast).
	if res[KindGeneral].FlushesPerOp() >= res[KindGeneralIzra].FlushesPerOp() {
		t.Fatalf("general+manual %f >= general+izra %f flushes/op",
			res[KindGeneral].FlushesPerOp(), res[KindGeneralIzra].FlushesPerOp())
	}
	if res[KindNormalized].FlushesPerOp() >= res[KindNormalizedIzra].FlushesPerOp() {
		t.Fatalf("normalized+manual %f >= normalized+izra %f flushes/op",
			res[KindNormalized].FlushesPerOp(), res[KindNormalizedIzra].FlushesPerOp())
	}
	// Adding capsules on top of Izraelevitz costs more again (Figure 5
	// ordering: Izra-MSQ > Normalized+izra > General+izra in
	// throughput, i.e. the reverse in flushes).
	if res[KindGeneralIzra].FlushesPerOp() <= res[KindNormalizedIzra].FlushesPerOp() {
		t.Fatalf("general+izra %f <= normalized+izra %f flushes/op",
			res[KindGeneralIzra].FlushesPerOp(), res[KindNormalizedIzra].FlushesPerOp())
	}
	if res[KindNormalizedIzra].FlushesPerOp() <= res[KindIzraMSQ].FlushesPerOp() {
		t.Fatalf("normalized+izra %f <= izra-msq %f flushes/op",
			res[KindNormalizedIzra].FlushesPerOp(), res[KindIzraMSQ].FlushesPerOp())
	}
	// Figure 6 orderings: Opt variants fence less than their bases;
	// Normalized boundaries fewer than General. The stack family
	// inherits the same contrast.
	if res[KindGeneralOpt].FencesPerOp() >= res[KindGeneral].FencesPerOp() {
		t.Fatalf("general-opt fences %f >= general %f",
			res[KindGeneralOpt].FencesPerOp(), res[KindGeneral].FencesPerOp())
	}
	if res[KindNormalizedOpt].FencesPerOp() >= res[KindNormalized].FencesPerOp() {
		t.Fatalf("normalized-opt fences %f >= normalized %f",
			res[KindNormalizedOpt].FencesPerOp(), res[KindNormalized].FencesPerOp())
	}
	if res[KindNormalized].BoundariesPerOp() >= res[KindGeneral].BoundariesPerOp() {
		t.Fatalf("normalized boundaries %f >= general %f",
			res[KindNormalized].BoundariesPerOp(), res[KindGeneral].BoundariesPerOp())
	}
	// The stack's -opt variant selects compact one-line frames: fewer
	// flushes per boundary (its fence count is unchanged — the stack has
	// no fence-before-CAS elision sites).
	if res[KindPStackOpt].FlushesPerOp() >= res[KindPStack].FlushesPerOp() {
		t.Fatalf("pstack-opt flushes %f >= pstack %f",
			res[KindPStackOpt].FlushesPerOp(), res[KindPStack].FlushesPerOp())
	}
}

// TestEffectiveFlushCoalescing pins the write-combining layer's effect
// end-to-end: for the kinds whose persist sites batch same-line flushes
// (capsule full-frame boundaries, qnode alloc node init, the
// persist-after-recoverable-CAS sites, logqueue's log appends),
// effective flushes per op must be strictly below issued flushes per op
// — before the layer existed the two were equal by definition.
func TestEffectiveFlushCoalescing(t *testing.T) {
	cfg := smallCfg()
	cfg.Threads = 1
	for _, k := range []string{
		KindGeneral,       // full two-copy frames: multi-slot boundary batches coalesce
		KindNormalized,    // full frames + alloc/persist sites
		KindGeneralOpt,    // compact frames: alloc + persist-after-CAS sites still coalesce
		KindNormalizedOpt, //
		KindPStack,        // qnode alloc + top persist-after-CAS
		KindPStackOpt,     //
		KindLogQueue,      // log append and return-slot batches
	} {
		r, err := Run(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.EffFlushesPerOp() >= r.FlushesPerOp() {
			t.Fatalf("%s: effective %f >= issued %f flushes/op — no coalescing",
				k, r.EffFlushesPerOp(), r.FlushesPerOp())
		}
		if r.CoalescedPerOp() <= 0 {
			t.Fatalf("%s: no coalesced flushes recorded", k)
		}
		// The identity issued = effective + coalesced must hold exactly.
		if r.Stats.Flushes != r.Stats.EffectiveFlushes()+r.Stats.CoalescedFlushes {
			t.Fatalf("%s: flush accounting inconsistent: %+v", k, r.Stats)
		}
		if r.LinesPerDrain() <= 0 {
			t.Fatalf("%s: no lines-per-drain recorded", k)
		}
	}
	// The volatile baselines coalesce nothing because they flush nothing.
	for _, k := range []string{KindMSQ, KindMapVolatile, KindStackVolatile} {
		r, err := Run(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats.CoalescedFlushes != 0 || r.Stats.LinesPersisted != 0 {
			t.Fatalf("%s: phantom persistence work: %+v", k, r.Stats)
		}
	}
}

// TestEffectiveFlushRegression pins the post-coalescing effective
// flush costs of the CI-watched kinds: a change that reintroduces
// redundant line write-backs (or breaks the coalescing accounting)
// fails here. Counts are deterministic at one thread.
func TestEffectiveFlushRegression(t *testing.T) {
	cfg := Config{
		Threads:    1,
		Pairs:      2000,
		FlushDelay: 0,
		FenceDelay: 0,
		Params: workload.Params{
			"seed-nodes": 2000,
			"stack-seed": 1000,
		},
	}
	pins := map[string]float64{
		// Measured post-coalescing values (4.50 and 2.75) plus slack for
		// benign drift. The stack paid 6.00 before its node write moved
		// into the push executor and a popped node became the next push's
		// volatile spare (no pop-generator flush, no free-list persists),
		// and 9.50 before coalescing, so a regression clears the pin.
		KindPStackOpt: 4.7,
		KindPmap:      2.9,
		// Batched kinds over packed arenas: measured 0.30 and 0.28
		// effective flushes/op at b64 (one FlushRange line per ~4 nodes
		// plus the splice/commit flushes, amortized over the batch).
		// The pre-packing line-per-node arenas sat at ~1.05, so any
		// regression back toward one flush per operation clears these
		// pins — and the perf target they guard (≤ 0.55) — by far.
		KindQueueBatched + "-b64": 0.4,
		KindStackBatched + "-b64": 0.4,
		// Map group commit: line-packed slot installs behind one install
		// fence plus one deferred Ptr-persist pass per window. Measured
		// ~0.55 effective flushes/op at b64 (installs ~0.15, the rest is
		// the close pass over the window's distinct Ptr lines); the
		// eager-persist tier sat at 2.02, so a regression back toward
		// one-flush-per-swing clears the pin by far.
		KindMapBatched + "-b64": 1.0,
	}
	for k, pin := range pins {
		r, err := Run(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.EffFlushesPerOp(); got > pin {
			t.Fatalf("%s: effective flushes/op %f exceeds pinned %f", k, got, pin)
		}
	}
}

func TestSweepAndPrint(t *testing.T) {
	cfg := smallCfg()
	cfg.Pairs = 100
	res, err := workload.Sweep([]string{KindMSQ, KindNormalizedOpt}, []int{1, 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("results: %d", len(res))
	}
	var buf bytes.Buffer
	workload.PrintTable(&buf, "test", res)
	out := buf.String()
	for _, want := range []string{"msq", "normalized-opt", "threads", "flush/op"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestRecoveryStudy(t *testing.T) {
	pts := workload.RecoveryStudy([]uint32{10, 2000})
	if len(pts) != 2 {
		t.Fatalf("points: %d", len(pts))
	}
	// LogQueue recovery grows with queue length.
	if pts[1].Steps["logqueue"] < pts[0].Steps["logqueue"]*10 {
		t.Fatalf("logqueue recovery not O(n): %d -> %d",
			pts[0].Steps["logqueue"], pts[1].Steps["logqueue"])
	}
	// Capsule recovery is constant (within noise).
	if pts[1].Steps["capsule+rcas"] > pts[0].Steps["capsule+rcas"]*2+16 {
		t.Fatalf("capsule recovery not O(1): %d -> %d",
			pts[0].Steps["capsule+rcas"], pts[1].Steps["capsule+rcas"])
	}
	var buf bytes.Buffer
	workload.PrintRecovery(&buf, pts)
	if !strings.Contains(buf.String(), "recovery latency") {
		t.Fatal("missing header")
	}
}

func TestMapReadMixShapesCost(t *testing.T) {
	// Gets never flush, so a read-heavier mix must cost fewer flushes
	// per operation on the recoverable map.
	reads := smallCfg()
	reads.Threads = 1
	reads.Params = reads.Params.Set("read-pct", 95)
	writes := reads
	writes.Params = reads.Params.Set("read-pct", 0)
	r, err := Run(KindPmap, reads)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Run(KindPmap, writes)
	if err != nil {
		t.Fatal(err)
	}
	if r.FlushesPerOp() >= w.FlushesPerOp() {
		t.Fatalf("read-heavy %f flushes/op >= write-heavy %f", r.FlushesPerOp(), w.FlushesPerOp())
	}
}

// TestReadHeavySweepShape pins the readheavy figure's expected shape
// in the light-Invoke benchmark: persistence costs (eff-flushes,
// CASes) fall strictly as the read fraction rises (Gets are
// persistence-free), elided terminals track the write fraction (each
// effectful op's probe rides the read-only tier; a pure Get — one
// capsule completing volatilely — counts in neither boundary column),
// persisted boundaries are zero against a pre-filled table (probes
// never claim, completions are light), and the write-only point r0
// measures exactly what the plain pmap kind measures at read-pct 0.
func TestReadHeavySweepShape(t *testing.T) {
	cfg := smallCfg()
	cfg.Threads = 1
	run := func(kind string) workload.Result {
		r, err := Run(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r0, r90, r99 := run("pmap-r0"), run("pmap-r90"), run("pmap-r99")
	if !(r99.EffFlushesPerOp() < r90.EffFlushesPerOp() && r90.EffFlushesPerOp() < r0.EffFlushesPerOp()) {
		t.Fatalf("eff-flushes/op not strictly falling with read pct: r0=%.3f r90=%.3f r99=%.3f",
			r0.EffFlushesPerOp(), r90.EffFlushesPerOp(), r99.EffFlushesPerOp())
	}
	if !(r99.CASesPerOp() < r90.CASesPerOp() && r90.CASesPerOp() < r0.CASesPerOp()) {
		t.Fatalf("CASes/op not strictly falling: r0=%.3f r90=%.3f r99=%.3f",
			r0.CASesPerOp(), r90.CASesPerOp(), r99.CASesPerOp())
	}
	if !(r99.ElidedBoundariesPerOp() < r90.ElidedBoundariesPerOp() &&
		r90.ElidedBoundariesPerOp() < r0.ElidedBoundariesPerOp()) {
		t.Fatalf("elided/op not tracking the write fraction: r0=%.3f r90=%.3f r99=%.3f",
			r0.ElidedBoundariesPerOp(), r90.ElidedBoundariesPerOp(), r99.ElidedBoundariesPerOp())
	}
	for _, r := range []workload.Result{r0, r90, r99} {
		if r.BoundariesPerOp() != 0 {
			t.Fatalf("%s: bound/op %.3f, want 0 (no claims against a pre-filled table; completions are light)",
				r.Kind, r.BoundariesPerOp())
		}
	}
	// Get is persistence-free, so at r99 the residual persisted work
	// comes from the 1% writes alone: well under a tenth of r0's.
	if r99.EffFlushesPerOp() > r0.EffFlushesPerOp()/10 {
		t.Fatalf("r99 eff-flushes/op %.3f not <= r0/10 (%.3f)",
			r99.EffFlushesPerOp(), r0.EffFlushesPerOp()/10)
	}
	// The pinned r0 kind must measure the same thing as the plain kind
	// at read-pct 0 — the fast lane changes nothing on write-only runs.
	plain := cfg
	plain.Params = cfg.Params.Set("read-pct", 0)
	p0, err := Run(KindPmap, plain)
	if err != nil {
		t.Fatal(err)
	}
	if r0.BoundariesPerOp() != p0.BoundariesPerOp() || r0.EffFlushesPerOp() != p0.EffFlushesPerOp() {
		t.Fatalf("pmap-r0 (%.3f bound/op, %.3f eff-flush/op) != pmap at read-pct 0 (%.3f, %.3f)",
			r0.BoundariesPerOp(), r0.EffFlushesPerOp(), p0.BoundariesPerOp(), p0.EffFlushesPerOp())
	}
}

func TestFamilySweeps(t *testing.T) {
	// Each non-queue family figure sweeps its volatile baseline against
	// the recoverable kinds.
	for _, fig := range []string{"map", "stack"} {
		kinds, ok := workload.FigureKinds(fig)
		if !ok {
			t.Fatalf("figure %q not registered", fig)
		}
		cfg := smallCfg()
		cfg.Pairs = 100
		res, err := workload.Sweep(kinds, []int{1, 2}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 2*len(kinds) {
			t.Fatalf("%s: results %d", fig, len(res))
		}
		for _, r := range res {
			if r.MopsPerSec() <= 0 {
				t.Fatalf("%s@%d: no throughput", r.Kind, r.Threads)
			}
		}
	}
}

func TestAttiyaSpaceOption(t *testing.T) {
	cfg := smallCfg()
	cfg.Params = cfg.Params.Set("attiya", 1)
	r, err := Run(KindNormalized, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.MopsPerSec() <= 0 {
		t.Fatal("no throughput with Attiya CAS")
	}
}

func TestFiguresDefined(t *testing.T) {
	figures := workload.Figures()
	for _, want := range []string{"5", "6", "7", "map", "stack"} {
		if _, ok := figures[want]; !ok {
			t.Fatalf("figure %q not registered", want)
		}
	}
	for fig, kinds := range figures {
		if len(kinds) < 2 {
			t.Fatalf("figure %s has %d kinds", fig, len(kinds))
		}
		for _, k := range kinds {
			if _, ok := workload.LookupBencher(k); !ok {
				t.Fatalf("figure %s references unknown kind %s", fig, k)
			}
		}
	}
}

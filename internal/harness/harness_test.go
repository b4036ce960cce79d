package harness

import (
	"bytes"
	"maps"
	"strings"
	"testing"

	"delayfree/internal/workload"
)

// smallCfg keeps unit-test runs quick; the real parameters live in
// cmd/benchfigs.
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

// run measures one kind, failing the test on error.
func run(t *testing.T, kind string, cfg Config) Result {
	t.Helper()
	r, err := Run(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// runLabel measures the kind or figure point labelled label at
// cfg.Threads, with the point's parameters laid over cfg's.
func runLabel(t *testing.T, label string, cfg Config) Result {
	t.Helper()
	for _, p := range smokePoints() {
		if p.Label == label {
			res, err := workload.Sweep(Run, []workload.Point{p}, []int{cfg.Threads}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res[0]
		}
	}
	t.Fatalf("no kind or figure point %q", label)
	return Result{}
}

// smokePoints is every kind at the run's own parameters, then every
// figure point whose label is not already listed (the guard test below
// makes a label mean one point everywhere it appears).
func smokePoints() []workload.Point {
	var out []workload.Point
	seen := map[string]bool{}
	for _, b := range Kinds() {
		out = append(out, workload.Point{Label: b.Kind, Kind: b.Kind})
		seen[b.Kind] = true
	}
	for _, f := range Figures() {
		for _, p := range f.Points {
			if !seen[p.Label] {
				out = append(out, p)
				seen[p.Label] = true
			}
		}
	}
	return out
}

// figure returns the points of the figure called name.
func figure(name string) ([]workload.Point, bool) {
	for _, f := range Figures() {
		if f.Name == name {
			return f.Points, true
		}
	}
	return nil, false
}

// TestRegistrySmoke runs every kind and every figure point — current
// and future families alike — at a tiny config and asserts non-zero
// throughput and sane stats, catching wiring regressions the moment a
// kind or a figure point joins the tables.
func TestRegistrySmoke(t *testing.T) {
	points := smokePoints()
	if len(points) < 40 {
		t.Fatalf("only %d kinds and figure points in the tables", len(points))
	}
	for _, p := range points {
		t.Run(p.Label, func(t *testing.T) {
			res, err := workload.Sweep(Run, []workload.Point{p}, []int{2}, smallCfg())
			if err != nil {
				t.Fatal(err)
			}
			r := res[0]
			if r.Kind != p.Label {
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
	// Run fills in every declared tunable; any other name still panics.
	defer func() {
		if recover() == nil {
			t.Fatal("undeclared parameter did not panic")
		}
	}()
	smallCfg().Param("never-declared")
}

// TestRegistryGuard keeps the tables consistent: kind, figure,
// stresser and probe names are unique; every kind is some point's kind
// and every point's kind is in the kinds table; labels are unique
// within a figure, and a label names the same point in every figure it
// appears in — a label that is a kind's name being that kind at the
// run's own parameters; and every stresser is complete, so RunRound can
// build and audit it (TestNoAuditCoverageGaps checks that every family
// with a kind has one).
func TestRegistryGuard(t *testing.T) {
	unique := func(table string, names []string) {
		seen := map[string]bool{}
		for _, n := range names {
			if seen[n] {
				t.Errorf("%s: %q appears twice", table, n)
			}
			seen[n] = true
		}
	}
	var kindNames, figNames, stresserNames, probeNames []string
	kinds := map[string]bool{}
	byLabel := map[string]workload.Point{}
	for _, b := range Kinds() {
		kindNames = append(kindNames, b.Kind)
		kinds[b.Kind] = true
		byLabel[b.Kind] = workload.Point{Label: b.Kind, Kind: b.Kind}
	}
	used := map[string]bool{}
	for _, f := range Figures() {
		figNames = append(figNames, f.Name)
		labels := map[string]bool{}
		for _, p := range f.Points {
			if !kinds[p.Kind] {
				t.Errorf("figure %s: point %s measures unknown kind %s", f.Name, p.Label, p.Kind)
			}
			used[p.Kind] = true
			if labels[p.Label] {
				t.Errorf("figure %s: label %s appears twice", f.Name, p.Label)
			}
			labels[p.Label] = true
			if prev, ok := byLabel[p.Label]; ok && (prev.Kind != p.Kind || !maps.Equal(prev.Params, p.Params)) {
				t.Errorf("figure %s: label %s means %+v here but %+v elsewhere", f.Name, p.Label, p, prev)
			}
			byLabel[p.Label] = p
		}
	}
	for _, k := range kindNames {
		if !used[k] {
			t.Errorf("kind %s is in no figure", k)
		}
	}
	for _, s := range Stressers() {
		stresserNames = append(stresserNames, s.Name)
		if s.Name == "" || s.Family == "" || s.Build == nil || s.Checker == nil {
			t.Errorf("stresser %q (family %q) lacks a Name, Family, Build or Checker", s.Name, s.Family)
		}
	}
	for _, p := range Probes() {
		probeNames = append(probeNames, p.Name)
	}
	unique("kinds", kindNames)
	unique("figures", figNames)
	unique("stressers", stresserNames)
	unique("probes", probeNames)
}

// TestRegistryLookups pins what the listings print: each table's
// names in table order, and the lookups by name.
func TestRegistryLookups(t *testing.T) {
	names := func(n int, name func(i int) string) string {
		out := make([]string, n)
		for i := range out {
			out[i] = name(i)
		}
		return strings.Join(out, ",")
	}
	figs, kinds, stressers, probes, params := Figures(), Kinds(), Stressers(), Probes(), Params()
	for _, c := range []struct{ table, got, want string }{
		{"figures", names(len(figs), func(i int) string { return figs[i].Name }),
			"batching,5,6,7,map,readheavy,stack"},
		{"stressers", names(len(stressers), func(i int) string { return stressers[i].Name }),
			"pmap-batched,pmap,pmap-readheavy,pqueue-batched,general,general-opt,normalized,normalized-opt,pstack-batched,pstack"},
		{"probes", names(len(probes), func(i int) string { return probes[i].Name }),
			"logqueue,capsule+rcas"},
		{"params", names(len(params), func(i int) string { return params[i].Name }),
			"batch-max,seed-nodes,attiya,read-pct,map-keys,map-shards,stack-seed"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.table, c.got, c.want)
		}
	}
	if len(kinds) != 19 {
		t.Errorf("%d kinds, want 19", len(kinds))
	}
	if pts, ok := figure("stack"); !ok || len(pts) != 3 || pts[1].Kind != KindPStack {
		t.Errorf("figure stack = %v, %v", pts, ok)
	}
	if _, ok := figure("nope"); ok {
		t.Error("found an undeclared figure")
	}
	if s, ok := Stresser("pstack"); !ok || s.Family != "stack" || s.Checker == nil {
		t.Errorf("Stresser(pstack) = %+v, %v", s, ok)
	}
	if _, ok := Stresser("nope"); ok {
		t.Error("found an undeclared stresser")
	}
}

func TestPersistenceCostOrdering(t *testing.T) {
	// The figures' shape is driven by per-op persistence work; pin the
	// orderings the paper reports.
	cfg := smallCfg()
	cfg.Threads = 1
	res := map[string]Result{}
	for _, b := range Kinds() {
		res[b.Kind] = run(t, b.Kind, cfg)
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
		r := run(t, k, cfg)
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
		r := run(t, k, cfg)
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
	// Pins are keyed by kind or figure point: the batched kinds at the
	// batching figure's b64 points.
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
		r := runLabel(t, k, cfg)
		if got := r.EffFlushesPerOp(); got > pin {
			t.Fatalf("%s: effective flushes/op %f exceeds pinned %f", k, got, pin)
		}
	}
}

func TestSweepAndPrint(t *testing.T) {
	cfg := smallCfg()
	cfg.Pairs = 100
	res, err := workload.Sweep(Run, plain(KindMSQ, KindNormalizedOpt), []int{1, 2}, cfg)
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
	pts := workload.RecoveryStudy(Probes(), []uint32{10, 2000})
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
	workload.PrintRecovery(&buf, Probes(), pts)
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
	r, w := run(t, KindPmap, reads), run(t, KindPmap, writes)
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
	r0, r90, r99 := runLabel(t, "pmap-r0", cfg), runLabel(t, "pmap-r90", cfg), runLabel(t, "pmap-r99", cfg)
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
	// The r0 point must measure the same thing as the plain kind at
	// read-pct 0 — the fast lane changes nothing on write-only runs.
	writeOnly := cfg
	writeOnly.Params = cfg.Params.Set("read-pct", 0)
	p0 := run(t, KindPmap, writeOnly)
	if r0.BoundariesPerOp() != p0.BoundariesPerOp() || r0.EffFlushesPerOp() != p0.EffFlushesPerOp() {
		t.Fatalf("pmap-r0 (%.3f bound/op, %.3f eff-flush/op) != pmap at read-pct 0 (%.3f, %.3f)",
			r0.BoundariesPerOp(), r0.EffFlushesPerOp(), p0.BoundariesPerOp(), p0.EffFlushesPerOp())
	}
}

func TestFamilySweeps(t *testing.T) {
	// Each non-queue family figure sweeps its volatile baseline against
	// the recoverable kinds.
	for _, fig := range []string{"map", "stack"} {
		points, ok := figure(fig)
		if !ok {
			t.Fatalf("figure %q not in the table", fig)
		}
		cfg := smallCfg()
		cfg.Pairs = 100
		res, err := workload.Sweep(Run, points, []int{1, 2}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 2*len(points) {
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
	if r := run(t, KindNormalized, cfg); r.MopsPerSec() <= 0 {
		t.Fatal("no throughput with Attiya CAS")
	}
}

func TestFiguresDefined(t *testing.T) {
	for _, want := range []string{"5", "6", "7", "map", "stack"} {
		if _, ok := figure(want); !ok {
			t.Fatalf("figure %q not in the table", want)
		}
	}
	for _, f := range Figures() {
		if len(f.Points) < 2 {
			t.Fatalf("figure %s has %d points", f.Name, len(f.Points))
		}
	}
}

// TestMapShardsAsGiven: the map kinds take map-shards as given — one
// shard builds one segment — and only pmap-sharded reads it.
func TestMapShardsAsGiven(t *testing.T) {
	for _, c := range []struct {
		kind       string
		set, shard int
	}{{KindPmapSharded, 1, 1}, {KindPmapSharded, 4, 4}, {KindPmap, 4, 1}} {
		cfg := smallCfg()
		cfg.Params = cfg.Params.Set("map-shards", int64(c.set))
		if _, got := mapGeom(c.kind, cfg); got != c.shard {
			t.Errorf("%s at map-shards %d builds %d shards, want %d", c.kind, c.set, got, c.shard)
		}
	}
	one := smallCfg()
	one.Params = one.Params.Set("map-shards", 1)
	if r := run(t, KindPmapSharded, one); r.MopsPerSec() <= 0 {
		t.Fatal("no throughput from a one-shard pmap-sharded run")
	}
}

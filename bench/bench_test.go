package main

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// tinyCfg runs one small measured segment per workload: enough to drive
// every code path and every verifier, with no timing in any assertion.
func tinyCfg(t *testing.T) runCfg {
	return runCfg{seed: 7, segments: 1, scale: 200, outDir: t.TempDir()}
}

func TestEveryWorkloadVerifies(t *testing.T) {
	for _, def := range workloads {
		rep := runWorkload(def, tinyCfg(t))
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", def.name, rep.Correct, rep.Attempted, rep.Failed)
		}
		if rep.Dropped != 0 {
			t.Errorf("%s: %d latency samples dropped", def.name, rep.Dropped)
		}
		for _, d := range endToEnd {
			if _, ok := rep.Metrics[d.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s missing", def.name, d.Name)
			}
		}
	}
}

// Each verifier must notice the damage it exists to notice: an
// acknowledged value missing from a Drain, a key flipped in a Dump, a
// pop sum off by one, a queue one node short.
func TestVerifiersCatchCorruption(t *testing.T) {
	for _, def := range workloads {
		cfg := tinyCfg(t)
		cfg.corrupt = true
		rep := runWorkload(def, cfg)
		if rep.Failed == 0 || rep.Correct {
			t.Errorf("%s: corrupted result passed verification (failed=%d)", def.name, rep.Failed)
		}
	}
}

func TestNamesMatchManifest(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, got []string, want []string) {
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s names differ:\n bench:    %v\n manifest: %v", kind, got, want)
		}
	}
	var wl, wlM, e2e, e2eM, pl, plM []string
	for _, w := range workloads {
		wl = append(wl, w.name)
		if !valid.MatchString(w.name) {
			t.Errorf("workload name %q is not valid", w.name)
		}
	}
	for _, w := range m.Workloads {
		wlM = append(wlM, w.Name)
	}
	for _, d := range endToEnd {
		e2e = append(e2e, d.Name+" "+d.Unit)
	}
	for _, d := range m.EndToEnd {
		e2eM = append(e2eM, d.Name+" "+d.Unit)
		// The range the benchmark contract accepts; README.md justifies
		// each value by the spread measured for that metric.
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", d.Name)
		}
	}
	for _, d := range perLayer {
		pl = append(pl, d.Name+" "+d.Unit)
	}
	for _, d := range m.PerLayer {
		plM = append(plM, d.Name+" "+d.Unit)
	}
	check("workload", wl, wlM)
	check("end-to-end", e2e, e2eM)
	check("per-layer", pl, plM)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !valid.MatchString(d.Name) {
			t.Errorf("metric name %q is not valid", d.Name)
		}
	}
}

// The traced run must emit every per-layer metric, and the contract line
// must carry exactly the manifest's keys.
func TestContractLines(t *testing.T) {
	def, _ := lookupWorkload("map_inline_r90")
	for _, trace := range []string{"0", "1"} {
		cfg := tinyCfg(t)
		cfg.trace = trace == "1"
		rep := runWorkload(def, cfg)
		if !rep.Correct {
			t.Fatalf("trace %s: run not correct (%d of %d failed)", trace, rep.Failed, rep.Attempted)
		}
		var out bytes.Buffer
		printReport(&out, rep, cfg.trace)
		printContractLine(&out, rep, cfg.trace)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var top map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &top); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", trace, err)
		}
		var keys []string
		for k := range top {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
			t.Errorf("trace %s: result keys %v", trace, keys)
		}
		var line contractLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(line.Metrics), len(want))
		}
		for _, d := range want {
			if v, ok := line.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("trace %s: metric %s missing or unit %q != %q", trace, d.Name, v.Unit, d.Unit)
			}
		}
	}
}

// With one client every count is a function of the seed alone.
func TestCountsRepeatWithSeed(t *testing.T) {
	for _, name := range exactCountWorkloads {
		def, _ := lookupWorkload(name)
		cfg := tinyCfg(t)
		cfg.segments = 2
		a, b := runWorkload(def, cfg), runWorkload(def, cfg)
		for _, m := range []string{"persist_cost_per_op", "delay_factor"} {
			if a.Metrics[m] != b.Metrics[m] || a.Metrics[m] == 0 {
				t.Errorf("%s: %s differs across runs with one seed: %v vs %v", name, m, a.Metrics[m], b.Metrics[m])
			}
		}
		for k, v := range a.Counts {
			if strings.HasPrefix(k, "pmem.") && v != b.Counts[k] {
				t.Errorf("%s: %s differs across runs with one seed: %v vs %v", name, k, v, b.Counts[k])
			}
		}
	}
}

// The paper's Figure 6 queue costs exactly this much per operation; the
// benchmark must reproduce the repository's recorded counts.
func TestQueueInlineCounts(t *testing.T) {
	def, _ := lookupWorkload("queue_inline")
	rep := runWorkload(def, tinyCfg(t))
	for name, want := range map[string]float64{
		"pmem.eff_flushes_per_op": 6, "pmem.fences_per_op": 3.5, "pmem.steps_per_op": 33,
	} {
		if got := rep.Counts[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got, want := rep.Metrics["persist_cost_per_op"], 6.0*flushDelay+3.5*fenceDelay; got != want {
		t.Errorf("persist_cost_per_op = %v, want %v", got, want)
	}
}

// op_p99_us must be the order statistic at rank 0.99·n: samples beyond
// it, however large, do not move it, and ties interpolate inside the tick.
func TestTickQuantile(t *testing.T) {
	ns := make([]uint32, 1000)
	for i := range ns {
		ns[i] = uint32(i + 1)
	}
	if got := tickQuantile(ns, 0.99); got != 991 {
		t.Errorf("p99 of 1..1000 = %v, want 991 (the 991st value, at the start of its tick)", got)
	}
	ns[999] = 1 << 30 // a tail outlier beyond the p99
	if got := tickQuantile(ns, 0.99); got != 991 {
		t.Errorf("p99 moved to %v with an outlier beyond it", got)
	}
	ties := []uint32{150, 150, 150, 150}
	if got := tickQuantile(ties, 0.5); got != 150.5 {
		t.Errorf("median of four samples in tick 150 = %v, want 150.5", got)
	}
	if got := tickQuantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

func TestJudge(t *testing.T) {
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01} }
	wide := func(c float64) []float64 { return []float64{c * 0.5, c, c * 1.5} }
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		want   verdict
	}{
		{"same", tight(100), tight(101), true, 0.10, within},
		{"faster", tight(100), tight(120), true, 0.10, better},
		{"slower", tight(100), tight(80), true, 0.10, worse},
		{"latency up", tight(100), tight(120), false, 0.10, worse},
		{"noisy", wide(100), wide(120), true, 0.10, unresolved},
		{"noisy but separated", wide(100), wide(400), true, 0.10, better},
	} {
		if got, _ := judge(median(tc.a), median(tc.b), tc.a, tc.b, tc.higher, tc.bound); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// With one client the count metrics are exact, so -compare flags a 1 %
// change that the manifest's bound would let through.
func TestCompareExactCounts(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	def, _ := lookupWorkload("queue_inline")
	a := runWorkload(def, tinyCfg(t))
	b := a
	b.Metrics = maps.Clone(a.Metrics)
	b.Metrics["persist_cost_per_op"] *= 1.01
	if counts := compareReports(io.Discard, m, []report{a}, []report{b}); counts[worse] != 1 {
		t.Errorf("verdicts %v, want exactly 1 worse", counts)
	}
}

func TestCompareFlagsDisagreement(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	def, _ := lookupWorkload("map_inline_r90")
	a := runWorkload(def, tinyCfg(t))
	b := a
	b.PerSegment = map[string][]float64{}
	b.Metrics = map[string]float64{}
	for k, vs := range a.PerSegment {
		for _, v := range vs {
			b.PerSegment[k] = append(b.PerSegment[k], v*2)
		}
	}
	for k, v := range a.Metrics {
		b.Metrics[k] = v * 2
	}
	counts := compareReports(io.Discard, m, []report{a}, []report{b})
	// Doubling everything makes throughput better and every cost worse.
	if counts[better] != 1 || counts[worse] != len(m.EndToEnd)-1 {
		t.Errorf("verdicts %v: want 1 better and %d worse", counts, len(m.EndToEnd)-1)
	}
}

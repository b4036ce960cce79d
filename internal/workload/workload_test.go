package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"delayfree/internal/pmem"
)

func fakeResult(kind string, threads int) Result {
	return Result{
		Kind:    kind,
		Threads: threads,
		Ops:     1000,
		Elapsed: time.Millisecond,
		Stats: pmem.Stats{Flushes: 2000, CoalescedFlushes: 500, LinesPersisted: 1500,
			Drains: 1000, Fences: 1000, CASes: 3000, Boundaries: 500},
	}
}

// fakeKinds are two kinds of a fake family; each reports its
// fake-size tunable as its step count.
var fakeKinds = []Bencher{
	{Kind: "fake-a", Family: "fake", Run: fakeRun},
	{Kind: "fake-b", Family: "fake", Run: fakeRun},
}

func fakeRun(cfg Config) Result {
	r := fakeResult("", cfg.Threads)
	r.Stats.Steps = uint64(cfg.Param("fake-size"))
	return r
}

var fakeFigure = Figure{Name: "fake", Points: []Point{
	{Label: "fake-a", Kind: "fake-a"},
	{Label: "fake-b", Kind: "fake-b"},
	{Label: "fake-a-s8", Kind: "fake-a", Params: Params{"fake-size": 8}},
}}

// runFake measures a fake kind, as harness.Run does a real one.
func runFake(kind string, cfg Config) (Result, error) {
	for _, b := range fakeKinds {
		if b.Kind == kind {
			r := b.Run(cfg)
			r.Kind = kind
			return r, nil
		}
	}
	return Result{}, fmt.Errorf("unknown kind %q", kind)
}

func TestRunAndSweep(t *testing.T) {
	cfg := Config{Params: Params{"fake-size": 32}}
	res, err := Sweep(runFake, fakeFigure.Points, []int{1, 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("sweep results: %d", len(res))
	}
	// Each result carries its point's label, and a point's Params win
	// over the run's without leaking into the next point or the caller.
	for i, want := range []struct {
		label   string
		threads int
		size    uint64
	}{{"fake-a", 1, 32}, {"fake-a", 2, 32}, {"fake-b", 1, 32}, {"fake-b", 2, 32}, {"fake-a-s8", 1, 8}, {"fake-a-s8", 2, 8}} {
		if r := res[i]; r.Kind != want.label || r.Threads != want.threads || r.Stats.Steps != want.size {
			t.Fatalf("result %d = %s@%d size %d, want %+v", i, r.Kind, r.Threads, r.Stats.Steps, want)
		}
	}
	if cfg.Params["fake-size"] != 32 {
		t.Fatalf("Sweep mutated the caller's params: %v", cfg.Params)
	}
	if _, err := Sweep(runFake, []Point{{Label: "x", Kind: "nope"}}, []int{1}, Config{}); err == nil {
		t.Fatal("point of an unknown kind did not error")
	}
	var buf bytes.Buffer
	PrintTable(&buf, "fake", res)
	for _, want := range []string{"fake-a", "fake-b", "threads", "flush/op"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, buf.String())
		}
	}
}

// TestParamResolution: a runner reads its tunables from the bag, a Set
// copy overrides one without touching the original, and a name the bag
// lacks panics (harness.Run fills in every declared default first).
func TestParamResolution(t *testing.T) {
	cfg := Config{Params: Params{"fake-size": 64, "fake-mix": 90}}
	if got := cfg.Param("fake-size"); got != 64 {
		t.Fatalf("fake-size = %d", got)
	}
	over := cfg
	over.Params = cfg.Params.Set("fake-size", 8)
	if got := over.Param("fake-size"); got != 8 {
		t.Fatalf("overridden fake-size = %d", got)
	}
	if got := over.Param("fake-mix"); got != 90 {
		t.Fatalf("fake-mix = %d", got)
	}
	if got := cfg.Param("fake-size"); got != 64 {
		t.Fatalf("Set mutated the original bag: fake-size = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("undeclared parameter did not panic")
		}
	}()
	cfg.Param("never-declared")
}

func TestResultPerOpMath(t *testing.T) {
	r := fakeResult("fake-a", 1)
	if r.MopsPerSec() <= 0 {
		t.Fatal("no throughput")
	}
	if got := r.FlushesPerOp(); got != 2.0 {
		t.Fatalf("flushes/op = %f", got)
	}
	if got := r.EffFlushesPerOp(); got != 1.5 {
		t.Fatalf("eff-flushes/op = %f", got)
	}
	if got := r.CoalescedPerOp(); got != 0.5 {
		t.Fatalf("coalesced/op = %f", got)
	}
	if got := r.LinesPerDrain(); got != 1.5 {
		t.Fatalf("lines/drain = %f", got)
	}
	if got := r.CASesPerOp(); got != 3.0 {
		t.Fatalf("cases/op = %f", got)
	}
	if (Result{}).MopsPerSec() != 0 || (Result{}).FlushesPerOp() != 0 || (Result{}).LinesPerDrain() != 0 {
		t.Fatal("zero result not zero-safe")
	}
}

func TestJSONReport(t *testing.T) {
	// fake-a-s8 is a label, not a kind: its family comes from its
	// point's kind.
	results := map[string][]Result{"fake": {fakeResult("fake-a", 1), fakeResult("fake-b", 2), fakeResult("fake-a-s8", 1)}}
	out, err := JSONReport(fakeKinds, []Figure{fakeFigure}, results)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Figures []struct {
			Figure  string `json:"figure"`
			Results []struct {
				Kind            string  `json:"kind"`
				Family          string  `json:"family"`
				Threads         int     `json:"threads"`
				Mops            float64 `json:"mops_per_sec"`
				FlushesPerOp    float64 `json:"flushes_per_op"`
				EffFlushesPerOp float64 `json:"eff_flushes_per_op"`
				CoalescedPerOp  float64 `json:"coalesced_flushes_per_op"`
				LinesPerDrain   float64 `json:"lines_per_drain"`
			} `json:"results"`
		} `json:"figures"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(rep.Figures) != 1 || rep.Figures[0].Figure != "fake" {
		t.Fatalf("figures: %+v", rep.Figures)
	}
	rs := rep.Figures[0].Results
	if len(rs) != 3 || rs[0].Kind != "fake-a" || rs[0].Family != "fake" || rs[0].FlushesPerOp != 2.0 {
		t.Fatalf("results: %+v", rs)
	}
	if rs[2].Kind != "fake-a-s8" || rs[2].Family != "fake" {
		t.Fatalf("label result: %+v", rs[2])
	}
	if rs[0].EffFlushesPerOp != 1.5 || rs[0].CoalescedPerOp != 0.5 || rs[0].LinesPerDrain != 1.5 {
		t.Fatalf("issued/effective split missing from JSON: %+v", rs[0])
	}
}

func TestRecoveryStudy(t *testing.T) {
	probes := []RecoveryProbe{{Name: "fake-probe", Steps: func(n uint32) uint64 { return uint64(n) + 7 }}}
	pts := RecoveryStudy(probes, []uint32{0, 100})
	if len(pts) != 2 {
		t.Fatalf("points: %d", len(pts))
	}
	if pts[1].Steps["fake-probe"] != 107 {
		t.Fatalf("probe steps: %+v", pts[1])
	}
	var buf bytes.Buffer
	PrintRecovery(&buf, probes, pts)
	if !strings.Contains(buf.String(), "fake-probe") || !strings.Contains(buf.String(), "recovery latency") {
		t.Fatalf("recovery table:\n%s", buf.String())
	}
}

package workload

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"delayfree/internal/pmem"
)

// The workload package itself registers nothing; this test binary owns
// the registry and populates it with fakes.

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

func init() {
	RegisterParams(
		Param{Name: "fake-size", Default: 64, Help: "fake structure size"},
		Param{Name: "fake-mix", Default: 90, Help: "fake read mix"},
	)
	// Shared parameter: same default merges.
	RegisterParams(Param{Name: "fake-size", Default: 64})
	for _, kind := range []string{"fake-a", "fake-b"} {
		RegisterBencher(Bencher{
			Kind:   kind,
			Family: "fake",
			Run: func(cfg Config) Result {
				r := fakeResult("", cfg.Threads)
				r.Stats.Steps = uint64(cfg.Param("fake-size"))
				return r
			},
		})
	}
	RegisterFigure("fake",
		Point{Label: "fake-a", Kind: "fake-a"},
		Point{Label: "fake-b", Kind: "fake-b"},
		Point{Label: "fake-a-s8", Kind: "fake-a", Params: Params{"fake-size": 8}})
	RegisterStresser(Stresser{
		Name:   "fake",
		Family: "fake",
		Run: func(cfg StressConfig) (StressReport, error) {
			return StressReport{Crashes: 1, Ops: uint64(cfg.Ops)}, nil
		},
	})
	RegisterRecoveryProbe(RecoveryProbe{
		Name:  "fake-probe",
		Steps: func(n uint32) uint64 { return uint64(n) + 7 },
	})
}

func TestRegistryLookups(t *testing.T) {
	if got := Benchers(); len(got) != 2 || got[0].Kind != "fake-a" || got[1].Kind != "fake-b" {
		t.Fatalf("Benchers() = %v", got)
	}
	if _, ok := LookupBencher("fake-a"); !ok {
		t.Fatal("fake-a not found")
	}
	if _, ok := LookupBencher("nope"); ok {
		t.Fatal("found unregistered kind")
	}
	if fams := Families(); len(fams) != 1 || fams[0] != "fake" {
		t.Fatalf("Families() = %v", fams)
	}
	if pts := Figures()["fake"]; len(pts) != 3 || pts[2].Kind != "fake-a" {
		t.Fatalf("Figures()[fake] = %v", pts)
	}
	if names := FigureNames(); len(names) != 1 || names[0] != "fake" {
		t.Fatalf("FigureNames() = %v", names)
	}
	if s, ok := LookupStresser("fake"); !ok || s.Family != "fake" {
		t.Fatalf("LookupStresser(fake) = %+v, %v", s, ok)
	}
	if len(RecoveryProbes()) != 1 {
		t.Fatalf("probes: %v", RecoveryProbes())
	}
}

func TestParamResolution(t *testing.T) {
	cfg := Config{}
	if got := cfg.Param("fake-size"); got != 64 {
		t.Fatalf("default fake-size = %d", got)
	}
	cfg.Params = Params{}.Set("fake-size", 8)
	if got := cfg.Param("fake-size"); got != 8 {
		t.Fatalf("overridden fake-size = %d", got)
	}
	if got := cfg.Param("fake-mix"); got != 90 {
		t.Fatalf("fake-mix = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown parameter did not panic")
		}
	}()
	cfg.Param("never-registered")
}

func TestDuplicateRegistrationsPanic(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("dup kind", func() {
		RegisterBencher(Bencher{Kind: "fake-a", Family: "fake", Run: func(Config) Result { return Result{} }})
	})
	mustPanic("dup stresser", func() {
		RegisterStresser(Stresser{Name: "fake", Family: "fake", Run: func(StressConfig) (StressReport, error) { return StressReport{}, nil }})
	})
	mustPanic("dup figure", func() { RegisterFigure("fake", Point{Label: "fake-a", Kind: "fake-a"}) })
	mustPanic("unlabelled point", func() { RegisterFigure("fake-2", Point{Kind: "fake-a"}) })
	mustPanic("conflicting param default", func() {
		RegisterParams(Param{Name: "fake-size", Default: 65})
	})
}

func TestRunAndSweep(t *testing.T) {
	r, err := Run("fake-a", Config{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != "fake-a" || r.Threads != 3 {
		t.Fatalf("result: %+v", r)
	}
	if _, err := Run("nope", Config{}); err == nil {
		t.Fatal("unknown kind did not error")
	}
	cfg := Config{Params: Params{"fake-size": 32}}
	res, err := Sweep(Figures()["fake"], []int{1, 2}, cfg)
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
	if _, err := Sweep([]Point{{Label: "x", Kind: "nope"}}, []int{1}, Config{}); err == nil {
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
	out, err := JSONReport([]string{"fake"}, results)
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
	pts := RecoveryStudy([]uint32{0, 100})
	if len(pts) != 2 {
		t.Fatalf("points: %d", len(pts))
	}
	if pts[1].Steps["fake-probe"] != 107 {
		t.Fatalf("probe steps: %+v", pts[1])
	}
	var buf bytes.Buffer
	PrintRecovery(&buf, pts)
	if !strings.Contains(buf.String(), "fake-probe") || !strings.Contains(buf.String(), "recovery latency") {
		t.Fatalf("recovery table:\n%s", buf.String())
	}
}

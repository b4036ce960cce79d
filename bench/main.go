// Command bench is the repository's benchmark: six named workloads,
// each verified, each reporting the same end-to-end metrics (what a
// caller of the system would feel) and, in a separate traced run, the
// per-layer metrics that decompose them. See README.md in this
// directory for the assumptions behind every number.
//
// Usage:
//
//	go run ./bench -seed 1                      # all workloads: measured, then traced
//	go run ./bench -workload queue_inline -seed 1 -seconds 10 -trace 0
//	go run ./bench -json a.json                 # also write machine-readable results
//	go run ./bench -compare a.json b.json       # better / worse / within-bound / unresolved
//	go run ./bench -selfcheck                   # two full sets must agree within the bounds
//	go run ./bench -workload map_ingress_paced -rates 50000,200000,800000
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	workload := fs.String("workload", "", "run one workload and end with the contract's JSON line (default: all)")
	seed := fs.Int64("seed", 1, "seed for keys, op mix, payloads and crash gaps")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	jsonPath := fs.String("json", "", "write the full reports to this file")
	compare := fs.Bool("compare", false, "compare two -json files: bench -compare a.json b.json")
	selfcheck := fs.Bool("selfcheck", false, "run two full sets back to back; fail unless every metric agrees within its bound")
	rates := fs.String("rates", "", "open-loop rate sweep, ops/s, comma-separated (with -workload map_ingress_paced)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := runCfg{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: outDir}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(out, fs.Arg(0), fs.Arg(1))
	case *selfcheck:
		return selfCheck(out, cfg)
	case *rates != "":
		rs, err := parseRates(*rates)
		if err != nil || *workload != "map_ingress_paced" {
			fmt.Fprintln(os.Stderr, "bench: -rates needs -workload map_ingress_paced and a list of positive rates")
			return 2
		}
		return rateSweep(out, cfg, rs)
	case *workload != "":
		def, ok := lookupWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		rep := runWorkload(def, cfg)
		printReport(out, rep, cfg.trace)
		if *jsonPath != "" {
			if err := writeReports(*jsonPath, []report{rep}); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
		printContractLine(out, rep, cfg.trace)
		if !rep.Correct {
			return 1
		}
		return 0
	default:
		reps, ok := runAll(out, cfg)
		if *jsonPath != "" {
			if err := writeReports(*jsonPath, reps); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
		if !ok {
			return 1
		}
		return 0
	}
}

func parseRates(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		r, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad rate %q", f)
		}
		out = append(out, r)
	}
	return out, nil
}

// runAll measures every workload, then traces every workload. Each run
// is its own child process, exactly as the contract runs them, so
// peak_rss_mb and the heap belong to one workload.
func runAll(out io.Writer, cfg runCfg) ([]report, bool) {
	var reps []report
	ok := true
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			c := cfg
			c.trace = traced
			rep, err := runChild(w.name, c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				ok = false
				continue
			}
			printReport(out, rep, traced)
			ok = ok && rep.Correct
			reps = append(reps, rep)
		}
	}
	return reps, ok
}

func writeReports(path string, reps []report) error {
	b, err := json.MarshalIndent(reps, "", " ")
	if err != nil {
		return fmt.Errorf("encoding reports: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing reports: %w", err)
	}
	return nil
}

func readReports(path string) ([]report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reports: %w", err)
	}
	var reps []report
	if err := json.Unmarshal(b, &reps); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return reps, nil
}

// printReport prints every metric by name with its unit.
func printReport(out io.Writer, rep report, traced bool) {
	mode := "measured"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(out, "== %s (%s, seed %d): %d segments, %d ops attempted, %d failed, gc_cycles = %d, p99 from >= %d samples/segment\n",
		rep.Workload, mode, rep.Seed, rep.Segments, rep.Attempted, rep.Failed, rep.GCCycles, rep.Samples)
	if rep.Dropped > 0 {
		fmt.Fprintf(out, "   warning: %d latency samples dropped (sample buffer too small)\n", rep.Dropped)
	}
	if !traced {
		for _, d := range endToEnd {
			fmt.Fprintf(out, "   %-22s = %14.6f %-12s (segment spread %.3f)\n", d.Name, rep.Metrics[d.Name], d.Unit, iqrShare(rep.PerSegment[d.Name]))
		}
		fmt.Fprintf(out, "   %-22s = %14.6f %-12s\n", "failed_ops_share", ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio")
		return
	}
	for _, d := range perLayer {
		fmt.Fprintf(out, "   %-30s = %14.6f %s\n", d.Name, rep.Layer[d.Name], d.Unit)
	}
}

// contractLine is the last line of a -workload run.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printContractLine(out io.Writer, rep report, traced bool) {
	line := contractLine{Correct: rep.Correct, Attempted: max(rep.Attempted, 1), Failed: rep.Failed,
		Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, rep.Metrics
	if traced {
		defs, vals = perLayer, rep.Layer
	}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(fmt.Sprintf("bench: encoding result: %v", err)) // only NaN/Inf can fail; metrics are finite ratios
	}
	fmt.Fprintf(out, "%s\n", b)
}

// Command benchfigs regenerates the paper's evaluation artifacts
// (Figures 5, 6 and 7 of Ben-David et al., SPAA 2019) plus the
// repository's additional workload-family figures (map, stack) and the
// recovery-latency study, on the simulated persistent-memory substrate.
//
// Figures and workload tunables come from the tables in
// internal/harness: a figure or a tunable added there shows up here
// without modification. Per-family flags (e.g. -seed-nodes, -read-pct,
// -stack-seed) are generated from the parameter table; booleans are 0/1
// (e.g. -attiya 1).
//
// Usage:
//
//	benchfigs -fig 5                 # one figure
//	benchfigs -fig all               # everything
//	benchfigs -fig recovery          # recovery-latency study
//	benchfigs -fig 6 -threads 8 -pairs 50000 -seed-nodes 1000000
//	benchfigs -fig stack             # Treiber stack workload family
//	benchfigs -fig all -json out.json
//
// Output is one table per figure: thread counts down the rows, figure
// points (a kind, or a kind at a pinned parameter such as pmap-r90)
// across the columns, throughput in Mops/s, followed by the
// per-operation persistence costs that explain the ordering: issued
// flushes (flush instructions), *effective* flushes (line write-backs
// actually scheduled — issued minus the repeats the write-combining
// Port coalesced within a fence epoch), fences, CASes, capsule
// boundaries, and lines persisted per epoch drain. With -json,
// machine-readable results (kind, threads, Mops/s, per-op costs
// including the issued/effective split) are additionally written to
// the given file — the format BENCH_*.json perf trajectories record.
// EXPERIMENTS.md interprets the results against the paper's.
package main

import (
	"flag"
	"fmt"
	"os"

	"delayfree/internal/harness"
	"delayfree/internal/workload"
)

// sizes are the tunables that count something a run needs at least one
// of — keys, map segments, batch slots — so no runner can measure them
// at zero.
var sizes = map[string]bool{"map-keys": true, "map-shards": true, "batch-max": true}

// maxima bound the tunables with a ceiling: a percentage and a 0/1
// switch. Past it a runner would not fail but quietly run something
// else (all Gets; the Attiya CAS).
var maxima = map[string]int64{"read-pct": 100, "attiya": 1}

// checkParams rejects a tunable value no runner can use, naming its
// flag; params holds every tunable.
func checkParams(params workload.Params) error {
	for _, p := range harness.Params() {
		switch v := params[p.Name]; {
		case v < 0:
			// Every tunable is a count, percentage or 0/1 flag;
			// negative values would wrap through the families' uint32
			// conversions into absurd allocations.
			return fmt.Errorf("-%s must be >= 0 (got %d)", p.Name, v)
		case v == 0 && sizes[p.Name]:
			return fmt.Errorf("-%s must be >= 1 (got 0)", p.Name)
		case maxima[p.Name] > 0 && v > maxima[p.Name]:
			return fmt.Errorf("-%s must be <= %d (got %d)", p.Name, maxima[p.Name], v)
		}
	}
	return nil
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (one of -list), recovery, or all")
	maxThreads := flag.Int("threads", 8, "maximum thread count for the sweep (paper: 8)")
	pairs := flag.Int("pairs", 20000, "operation pairs per thread")
	flushDelay := flag.Int("flush-delay", 250, "simulated flush latency (spin iterations)")
	fenceDelay := flag.Int("fence-delay", 120, "simulated fence latency (spin iterations)")
	jsonPath := flag.String("json", "", "write machine-readable results to this file")
	list := flag.Bool("list", false, "list the figures and their points, then exit")

	// Per-family tunables come from the parameter table.
	paramFlags := map[string]*int64{}
	for _, p := range harness.Params() {
		paramFlags[p.Name] = flag.Int64(p.Name, p.Default, p.Help)
	}
	flag.Parse()

	figures := harness.Figures()
	if *list {
		for _, f := range figures {
			labels := make([]string, len(f.Points))
			for i, p := range f.Points {
				labels[i] = p.Label
			}
			fmt.Printf("%-10s %v\n", f.Name, labels)
		}
		return
	}

	if *maxThreads < 1 || *pairs < 1 || *flushDelay < 0 || *fenceDelay < 0 {
		fmt.Fprintln(os.Stderr, "-threads and -pairs must be >= 1, delays >= 0")
		os.Exit(2)
	}
	cfg := workload.Config{
		Pairs:      *pairs,
		FlushDelay: *flushDelay,
		FenceDelay: *fenceDelay,
		Params:     workload.Params{},
	}
	for name, v := range paramFlags {
		cfg.Params[name] = *v
	}
	if err := checkParams(cfg.Params); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	threads := make([]int, 0, *maxThreads)
	for t := 1; t <= *maxThreads; t++ {
		threads = append(threads, t)
	}

	recovery := func() {
		probes := harness.Probes()
		workload.PrintRecovery(os.Stdout, probes, workload.RecoveryStudy(probes, []uint32{0, 10, 100, 1000, 10000, 100000}))
	}
	var selected []workload.Figure
	switch *fig {
	case "recovery":
		if *jsonPath != "" {
			fmt.Fprintln(os.Stderr, "-json covers figure sweeps; it is not supported with -fig recovery")
			os.Exit(2)
		}
		recovery()
		return
	case "all":
		selected = figures
	default:
		names := make([]string, len(figures))
		for i, f := range figures {
			names[i] = f.Name
			if f.Name == *fig {
				selected = []workload.Figure{f}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "unknown figure %q (figures: %v)\n", *fig, names)
			os.Exit(2)
		}
	}

	results := map[string][]workload.Result{}
	for _, f := range selected {
		res, err := workload.Sweep(harness.Run, f.Points, threads, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		results[f.Name] = res
		workload.PrintTable(os.Stdout, "Figure "+f.Name, res)
	}
	if *fig == "all" {
		recovery()
	}

	if *jsonPath != "" {
		out, err := workload.JSONReport(harness.Kinds(), selected, results)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

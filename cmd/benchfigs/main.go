// Command benchfigs regenerates the paper's evaluation artifacts
// (Figures 5, 6 and 7 of Ben-David et al., SPAA 2019) plus the
// repository's additional workload-family figures (map, stack) and the
// recovery-latency study, on the simulated persistent-memory substrate.
//
// Figures and workload tunables are discovered through the workload
// registry: registering a family contributes its figure and its flags
// here without modification. Per-family flags (e.g. -seed-nodes,
// -read-pct, -stack-seed) are generated from the registered parameter
// definitions; booleans are 0/1 (e.g. -attiya 1).
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

	"delayfree/internal/workload"
	_ "delayfree/internal/workload/all"
)

// sizes are the tunables that count something a run needs at least one
// of — keys, map segments, batch slots, combiners — so no runner can
// measure them at zero.
var sizes = map[string]bool{"map-keys": true, "map-shards": true, "batch-max": true, "ingress-shards": true}

// checkParams rejects a tunable value no runner can use, naming its
// flag; params holds every registered tunable.
func checkParams(params workload.Params) error {
	for _, p := range workload.ParamDefs() {
		switch v := params[p.Name]; {
		case v < 0:
			// Every registered tunable is a count, percentage or 0/1
			// flag; negative values would wrap through the families'
			// uint32 conversions into absurd allocations.
			return fmt.Errorf("-%s must be >= 0 (got %d)", p.Name, v)
		case v == 0 && sizes[p.Name]:
			return fmt.Errorf("-%s must be >= 1 (got 0)", p.Name)
		}
	}
	return nil
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (registered: see -list), recovery, or all")
	maxThreads := flag.Int("threads", 8, "maximum thread count for the sweep (paper: 8)")
	pairs := flag.Int("pairs", 20000, "operation pairs per thread")
	flushDelay := flag.Int("flush-delay", 250, "simulated flush latency (spin iterations)")
	fenceDelay := flag.Int("fence-delay", 120, "simulated fence latency (spin iterations)")
	jsonPath := flag.String("json", "", "write machine-readable results to this file")
	list := flag.Bool("list", false, "list registered figures and their points, then exit")

	// Per-family tunables come from the registry.
	paramFlags := map[string]*int64{}
	for _, p := range workload.ParamDefs() {
		paramFlags[p.Name] = flag.Int64(p.Name, p.Default, p.Help)
	}
	flag.Parse()

	figures := workload.Figures()
	if *list {
		for _, name := range workload.FigureNames() {
			labels := make([]string, len(figures[name]))
			for i, p := range figures[name] {
				labels[i] = p.Label
			}
			fmt.Printf("%-10s %v\n", name, labels)
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

	var figNames []string
	switch *fig {
	case "recovery":
		if *jsonPath != "" {
			fmt.Fprintln(os.Stderr, "-json covers figure sweeps; it is not supported with -fig recovery")
			os.Exit(2)
		}
		workload.PrintRecovery(os.Stdout, workload.RecoveryStudy([]uint32{0, 10, 100, 1000, 10000, 100000}))
		return
	case "all":
		figNames = workload.FigureNames()
	default:
		figNames = []string{*fig}
	}

	results := map[string][]workload.Result{}
	for _, name := range figNames {
		points, ok := figures[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q (registered: %v)\n", name, workload.FigureNames())
			os.Exit(2)
		}
		res, err := workload.Sweep(points, threads, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		results[name] = res
		workload.PrintTable(os.Stdout, "Figure "+name, res)
	}
	if *fig == "all" {
		workload.PrintRecovery(os.Stdout, workload.RecoveryStudy([]uint32{0, 10, 100, 1000, 10000, 100000}))
	}

	if *jsonPath != "" {
		out, err := workload.JSONReport(figNames, results)
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

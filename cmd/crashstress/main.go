// Command crashstress is a long-running crash-injection validator: it
// runs every crash-stress driver in the harness stresser table under
// randomized crashes in both failure models — independent process
// crashes in the private model and full-system crashes in the
// shared-cache model — and checks exactness: every process completes
// every operation exactly once, nothing is lost, duplicated or
// corrupted. The queue and stack families share one pair round, which
// checks conservation over the persisted driver accounting; the map
// family replays a shadow model against the recovered contents.
//
// Workload families come from that table, never switch-cased here:
// adding a new family's stresser to it makes this command stress it.
//
// The write-combining persist layer (see DESIGN.md) does not change
// what these rounds validate: coalescing only elides redundant
// write-backs of a line already pending in the same fence epoch, and a
// crash before the fence drops the whole epoch either way — so every
// durability point the stressers exercise is bit-for-bit the same,
// while the denser instrumented-step layout (one step per issued flush
// of a batch) moves the injected crash points into the middle of batch
// persists as well.
//
// Usage:
//
//	crashstress -rounds 20 -procs 4 -ops 50 -seed 1
//	crashstress -workload stack -rounds 4 -crashes 500
//	crashstress -workload normalized-opt
//
// -workload selects a family (queue, map, stack) or a single stresser
// by name; "all" runs everything. Exit status is non-zero if any round
// finds a violation.
//
// Every round also records its full operation history (invocations,
// returns, crash markers, per-op flush/fence deltas) and runs the
// family's durable-linearizability checker plus the detectability
// cross-check over it; a violating round dumps a machine-readable
// minimal failing history into -artifact-dir. Every round prints a
// stats delta line — the pmem counters the round consumed, normalized
// per operation. Bad flag values exit with status 2 before any round
// runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"delayfree/internal/harness"
	"delayfree/internal/workload"
)

// checkFlags rejects flag values no round can use, naming the flags:
// rounds and the counts and gaps of cfg, the configuration every round
// starts from. A nonzero -max-gap below -min-gap is refused here, before
// any round; RunRound still refuses a -max-gap below the -min-gap it
// derives when -min-gap is 0.
func checkFlags(rounds int, cfg workload.StressConfig) error {
	if rounds < 0 || cfg.Procs < 0 || cfg.Ops < 0 || cfg.Crashes < 0 || cfg.MinGap < 0 || cfg.MaxGap < 0 {
		return errors.New("negative -rounds/-procs/-ops/-crashes/-min-gap/-max-gap")
	}
	if cfg.MaxGap != 0 && cfg.MaxGap < cfg.MinGap {
		return fmt.Errorf("-max-gap %d is below -min-gap %d", cfg.MaxGap, cfg.MinGap)
	}
	return nil
}

func main() {
	sel := flag.String("workload", "all", "family or stresser name to stress, or all")
	rounds := flag.Int("rounds", 10, "rounds per stresser per failure model")
	procs := flag.Int("procs", 4, "processes")
	ops := flag.Int("ops", 0, "per-process script length (operation pairs); 0 = family default")
	crashes := flag.Int("crashes", 0, "full-system crash quota for quota-driven stressers; 0 = family default")
	seed := flag.Int64("seed", 1, "base RNG seed")
	minGap := flag.Int64("min-gap", 0, "minimum instrumented steps between crashes; 0 derives a livelock-safe gap")
	maxGap := flag.Int64("max-gap", 0, "maximum instrumented steps between crashes; 0 derives it")
	list := flag.Bool("list", false, "list the stressers and exit")
	artifactDir := flag.String("artifact-dir", "", "directory for failing-history JSON artifacts (default: OS temp dir)")
	flag.Parse()

	cfg := workload.StressConfig{
		Procs:       *procs,
		Ops:         *ops,
		Crashes:     *crashes,
		MinGap:      *minGap,
		MaxGap:      *maxGap,
		ArtifactDir: *artifactDir,
	}
	if err := checkFlags(*rounds, cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Every stresser carries its history checker (RunRound refuses one
	// without), so every round is audited.
	stressers := harness.Stressers()
	if *list {
		for _, s := range stressers {
			fmt.Printf("%-16s family=%s\n", s.Name, s.Family)
		}
		return
	}

	matched := false
	failures := 0
	for _, s := range stressers {
		if *sel != "all" && s.Name != *sel && s.Family != *sel {
			continue
		}
		matched = true
		for _, shared := range []bool{false, true} {
			for r := 0; r < *rounds; r++ {
				roundSeed := *seed + int64(r)*7919
				cfg.Seed, cfg.Shared = roundSeed, shared
				rep, err := workload.RunRound(s, cfg)
				if err != nil {
					failures++
					fmt.Printf("FAIL %-16s shared=%-5v seed=%-8d %v\n", s.Name, shared, roundSeed, err)
				} else {
					fmt.Printf("ok   %-16s shared=%-5v seed=%-8d crashes=%-6d restarts=%-6d ops=%d\n",
						s.Name, shared, roundSeed, rep.Crashes, rep.Restarts, rep.Ops)
					// Per-round delta of the pmem counters (each round runs
					// on a fresh memory, so its Stats are exactly the delta).
					// batches/avg-batch are non-zero only for the ingress-
					// batched stressers: committed batches alongside the
					// crash count are the per-round evidence that injected
					// crashes landed around live combiner spans.
					res := workload.Result{Ops: rep.Ops, Stats: rep.Stats}
					fmt.Printf("     Δ flush/op=%-5.1f eff=%-5.1f coal=%-5.1f fence/op=%-5.1f cas/op=%-5.1f bound/op=%-4.1f lines/drain=%-5.1f batches=%d avg-batch=%.1f steps=%d\n",
						res.FlushesPerOp(), res.EffFlushesPerOp(), res.CoalescedPerOp(),
						res.FencesPerOp(), res.CASesPerOp(), res.BoundariesPerOp(),
						res.LinesPerDrain(), rep.Stats.Batches, res.AvgBatch(), rep.Stats.Steps)
				}
			}
		}
	}
	if !matched {
		var families, names []string
		seen := map[string]bool{}
		for _, b := range harness.Kinds() {
			if !seen[b.Family] {
				seen[b.Family] = true
				families = append(families, b.Family)
			}
		}
		for _, s := range stressers {
			names = append(names, s.Name)
		}
		fmt.Fprintf(os.Stderr, "unknown workload %q (families: %v; stressers: %v)\n", *sel, families, names)
		os.Exit(2)
	}
	if failures > 0 {
		fmt.Printf("%d failing rounds\n", failures)
		os.Exit(1)
	}
	fmt.Println("all rounds exact")
}

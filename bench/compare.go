package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// runChild runs one workload in a child process of this same binary and
// reads its report back: every run, whether the driver's or one of a
// full set, is then one workload per process.
func runChild(workload string, cfg runCfg) (report, error) {
	self, err := os.Executable()
	if err != nil {
		return report{}, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return report{}, fmt.Errorf("creating %s: %w", outDir, err)
	}
	tmp, err := os.CreateTemp(outDir, "report-*.json")
	if err != nil {
		return report{}, fmt.Errorf("creating report file: %w", err)
	}
	path := tmp.Name()
	tmp.Close()
	defer os.Remove(path)

	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace, "-json", path}
	cmd := exec.Command(self, args...)
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.Discard, &stderr
	runErr := cmd.Run() // Run waits for the child to exit
	reps, err := readReports(path)
	if err != nil || len(reps) != 1 {
		return report{}, fmt.Errorf("child run failed (%v): %s", runErr, bytes.TrimSpace(stderr.Bytes()))
	}
	return reps[0], nil
}

// exactCountWorkloads have one client and no crash injection: every
// pmem count repeats bit for bit with the seed and the segment count
// (bench_test.go holds that). Across seeds, and across the segment counts
// that fit in a time budget, map_inline_r90's op mix moves them by up to
// 0.13 %, so the comparison holds them to exactCountBound, whatever the
// manifest allows: its bound has to cover map_ingress_paced, where batch
// sizes follow host jitter, and would let a 6.0 -> 6.5 flush regression
// through.
var exactCountWorkloads = []string{"queue_inline", "map_inline_r90"}

const exactCountBound = 0.005

// verdict is the comparison's judgement of one metric on one workload.
type verdict string

const (
	better     verdict = "better"
	worse      verdict = "worse"
	within     verdict = "within-bound"
	unresolved verdict = "unresolved"
)

// judge compares b against a for one metric: ma and mb are the reported
// values, a and b the per-segment values behind them (none for a metric
// that is one number per run). The reported values decide, unless the
// segment spread of either side exceeds the bound: then the difference
// cannot be told from noise and the verdict is unresolved — except when
// every segment of one side beats every segment of the other.
func judge(ma, mb float64, a, b []float64, higherIsBetter bool, bound float64) (verdict, float64) {
	change := ratio(mb-ma, ma) // relative change, positive = b larger
	gain := change
	if !higherIsBetter {
		gain = -change
	}
	if max(iqrShare(a), iqrShare(b)) > bound {
		switch {
		case separated(b, a, higherIsBetter):
			return better, change
		case separated(a, b, higherIsBetter):
			return worse, change
		}
		return unresolved, change
	}
	switch {
	case gain < -bound:
		return worse, change
	case gain > bound:
		return better, change
	}
	return within, change
}

// separated reports whether every value of x beats every value of y.
func separated(x, y []float64, higherIsBetter bool) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	if higherIsBetter {
		return slices.Min(x) > slices.Max(y)
	}
	return slices.Max(x) < slices.Min(y)
}

// compareReports prints one row per end-to-end metric and workload and
// returns how many rows got each verdict.
func compareReports(out io.Writer, m manifest, a, b []report) map[verdict]int {
	counts := map[verdict]int{}
	byName := func(reps []report) map[string]report {
		idx := map[string]report{}
		for _, r := range reps {
			if r.Layer == nil { // end-to-end numbers come from untraced runs only
				idx[r.Workload] = r
			}
		}
		return idx
	}
	ia, ib := byName(a), byName(b)
	fmt.Fprintf(out, "%-20s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, w := range m.Workloads {
		ra, okA := ia[w.Name]
		rb, okB := ib[w.Name]
		if !okA || !okB {
			fmt.Fprintf(out, "%-20s missing from one side\n", w.Name)
			counts[unresolved]++
			continue
		}
		for _, d := range m.EndToEnd {
			bound := 0.0
			if d.Bound != nil {
				bound = *d.Bound
			}
			segsA, segsB := ra.PerSegment[d.Name], rb.PerSegment[d.Name]
			// The reported value of the two count metrics is the total, not
			// a statistic of the segments; judge those on the totals.
			if d.Name == "persist_cost_per_op" || d.Name == "delay_factor" {
				if slices.Contains(exactCountWorkloads, w.Name) {
					bound = exactCountBound
				}
				segsA, segsB = nil, nil
			}
			v, change := judge(ra.Metrics[d.Name], rb.Metrics[d.Name], segsA, segsB, d.Better == "higher", bound)
			counts[v]++
			fmt.Fprintf(out, "%-20s %-22s %14.6f %14.6f %+8.2f%% %6.1f%%  %s\n",
				w.Name, d.Name, ra.Metrics[d.Name], rb.Metrics[d.Name], 100*change, 100*bound, v)
		}
		if ra.Failed != 0 || rb.Failed != 0 {
			fmt.Fprintf(out, "%-20s failed ops: a %d of %d, b %d of %d\n", w.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			counts[worse]++
		}
	}
	return counts
}

func compareFiles(out io.Writer, pathA, pathB string) int {
	m, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	a, err := readReports(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readReports(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	counts := compareReports(out, m, a, b)
	fmt.Fprintf(out, "%d better, %d worse, %d within-bound, %d unresolved\n",
		counts[better], counts[worse], counts[within], counts[unresolved])
	if counts[worse] > 0 {
		return 1
	}
	return 0
}

// selfCheck runs two full untraced sets of the same code back to back
// and fails unless every metric on every workload agrees within its
// bound: the benchmark must agree with itself before it can judge a
// change. An unresolved pair (segment spread wider than the bound) fails
// it too: that metric cannot carry a claim of the bound's size on this
// box, so passing it would be agreement by definition.
func selfCheck(out io.Writer, cfg runCfg) int {
	m, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	cfg.trace = false
	var sets [2][]report
	for i := range sets {
		for _, w := range workloads {
			rep, err := runChild(w.name, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			fmt.Fprintf(out, "set %d: ", i+1)
			printReport(out, rep, false)
			sets[i] = append(sets[i], rep)
		}
	}
	counts := compareReports(out, m, sets[0], sets[1])
	// The second set reading "better" is as much a disagreement as "worse".
	disagree := counts[better] + counts[worse]
	fmt.Fprintf(out, "selfcheck: %d disagreements beyond bound, %d unresolved\n", disagree, counts[unresolved])
	if disagree+counts[unresolved] > 0 {
		return 1
	}
	return 0
}

// rateSweep runs the open-loop workload at each listed rate and prints
// latency and backlog per rate, then the highest listed rate that meets
// the latency limit without a growing backlog.
func rateSweep(out io.Writer, cfg runCfg, rates []int) int {
	def, _ := lookupWorkload("map_ingress_paced")
	fmt.Fprintf(out, "map_ingress_paced rate sweep (ack limit %d us, %d s segments, %g s per rate)\n", ackLimitUS, pacedSegSecs, cfg.seconds)
	fmt.Fprintf(out, "%10s %12s %12s %12s %14s %12s  %s\n", "rate/s", "achieved/s", "op_p50_us", "op_p99_us", "gen_late_p99", "backlog_ops", "meets limit")
	best := 0
	status := 0
	for _, r := range rates {
		// In this process: the sweep reads latency and backlog, not
		// peak_rss_mb, so it needs no child per rate. Traced, because the
		// generator's lateness and the backlog are per-layer numbers.
		c := cfg
		c.rate, c.trace = r, true
		rep := runWorkload(def, c)
		if !rep.Correct {
			status = 1
		}
		achieved := rep.Metrics["throughput_mops"] * 1e6
		// The generator keeping up (achieved ≈ offered, small lateness)
		// is what "no growing backlog" means for a fixed-length schedule:
		// a backlog that grew would stretch the segment and push the
		// generator's lateness towards the segment length.
		keepsUp := achieved >= 0.98*float64(r) && rep.Layer["ingress.gen_late_us_p99"] < ackLimitUS
		ok := keepsUp && rep.Metrics["op_p99_us"] <= ackLimitUS && rep.Failed == 0
		if ok && r > best {
			best = r
		}
		fmt.Fprintf(out, "%10d %12.0f %12.1f %12.1f %14.1f %12.0f  %v\n", r, achieved,
			rep.Metrics["op_p50_us"], rep.Metrics["op_p99_us"], rep.Layer["ingress.gen_late_us_p99"],
			rep.Layer["ingress.backlog_end_ops"], ok)
	}
	if best > 0 {
		fmt.Fprintf(out, "highest listed rate meeting the limit without a growing backlog: %d ops/s\n", best)
	} else {
		fmt.Fprintf(out, "no listed rate meets the limit\n")
	}
	return status
}

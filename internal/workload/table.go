package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// PrintTable renders results as the per-figure series the paper plots:
// one row per thread count, one column per kind, in Mops/s, plus a
// per-op persistence cost appendix.
func PrintTable(w io.Writer, title string, results []Result) {
	byKind := map[string]map[int]Result{}
	kinds := []string{}
	threadSet := map[int]bool{}
	for _, r := range results {
		if byKind[r.Kind] == nil {
			byKind[r.Kind] = map[int]Result{}
			kinds = append(kinds, r.Kind)
		}
		byKind[r.Kind][r.Threads] = r
		threadSet[r.Threads] = true
	}
	threads := make([]int, 0, len(threadSet))
	for t := range threadSet {
		threads = append(threads, t)
	}
	sort.Ints(threads)

	fmt.Fprintf(w, "== %s ==\n", title)
	fmt.Fprintf(w, "throughput (Mops/s)\n%-8s", "threads")
	for _, k := range kinds {
		fmt.Fprintf(w, " %22s", k)
	}
	fmt.Fprintln(w)
	for _, t := range threads {
		fmt.Fprintf(w, "%-8d", t)
		for _, k := range kinds {
			fmt.Fprintf(w, " %22.3f", byKind[k][t].MopsPerSec())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "per-operation costs at %d thread(s)\n", threads[0])
	fmt.Fprintf(w, "%-24s %10s %12s %10s %10s %10s %10s %11s %9s\n",
		"kind", "flush/op", "eff-flush/op", "fence/op", "cas/op", "bound/op", "elided/op", "lines/drain", "avg-batch")
	for _, k := range kinds {
		r := byKind[k][threads[0]]
		fmt.Fprintf(w, "%-24s %10.2f %12.2f %10.2f %10.2f %10.2f %10.2f %11.2f %9.1f\n",
			k, r.FlushesPerOp(), r.EffFlushesPerOp(), r.FencesPerOp(),
			r.CASesPerOp(), r.BoundariesPerOp(), r.ElidedBoundariesPerOp(), r.LinesPerDrain(), r.AvgBatch())
	}
	fmt.Fprintln(w)
}

// JSONResult is the machine-readable form of one measured point (the
// benchfigs -json output; BENCH_*.json trajectories are built from it).
type JSONResult struct {
	Kind    string `json:"kind"`
	Family  string `json:"family,omitempty"`
	Threads int    `json:"threads"`
	Ops     uint64 `json:"ops"`
	// FlushesPerOp counts issued flush instructions; EffFlushesPerOp
	// subtracts the repeats coalesced within a fence epoch (the
	// write-combining layer) — the line write-backs actually scheduled.
	ElapsedNs       int64   `json:"elapsed_ns"`
	MopsPerSec      float64 `json:"mops_per_sec"`
	FlushesPerOp    float64 `json:"flushes_per_op"`
	EffFlushesPerOp float64 `json:"eff_flushes_per_op"`
	CoalescedPerOp  float64 `json:"coalesced_flushes_per_op"`
	FencesPerOp     float64 `json:"fences_per_op"`
	CASesPerOp      float64 `json:"cases_per_op"`
	// BoundariesPerOp counts *persisted* capsule boundaries;
	// ElidedBoundariesPerOp the read-only-tier terminals that advanced
	// the restart point volatilely (zero persistence cost).
	BoundariesPerOp       float64 `json:"boundaries_per_op"`
	ElidedBoundariesPerOp float64 `json:"elided_boundaries_per_op"`
	LinesPerDrain         float64 `json:"lines_per_drain"`
	// Batches/BatchedOps count ingress combiner batches and the
	// operations they carried (zero for unbatched kinds); AvgBatch is
	// their ratio — the achieved batch size, against which the 1/B
	// fences_per_op amortization is read.
	Batches    uint64  `json:"batches,omitempty"`
	BatchedOps uint64  `json:"batched_ops,omitempty"`
	AvgBatch   float64 `json:"avg_batch,omitempty"`
}

// JSONFigure groups the points of one figure.
type JSONFigure struct {
	Figure  string       `json:"figure"`
	Results []JSONResult `json:"results"`
}

// JSONReport marshals measured figures into the benchfigs -json format:
// {"figures":[{"figure":"stack","results":[...]}]}. Figures appear in
// the order given; a result's kind field is its point's label, and its
// family is that of the point's kind, looked up in kinds.
func JSONReport(kinds []Bencher, figures []Figure, results map[string][]Result) ([]byte, error) {
	report := struct {
		Figures []JSONFigure `json:"figures"`
	}{Figures: []JSONFigure{}}
	kindFamily := map[string]string{}
	for _, b := range kinds {
		kindFamily[b.Kind] = b.Family
	}
	for _, f := range figures {
		family := map[string]string{}
		for _, p := range f.Points {
			family[p.Label] = kindFamily[p.Kind]
		}
		fig := JSONFigure{Figure: f.Name, Results: []JSONResult{}}
		for _, r := range results[f.Name] {
			fig.Results = append(fig.Results, JSONResult{
				Kind:                  r.Kind,
				Family:                family[r.Kind],
				Threads:               r.Threads,
				Ops:                   r.Ops,
				ElapsedNs:             r.Elapsed.Nanoseconds(),
				MopsPerSec:            r.MopsPerSec(),
				FlushesPerOp:          r.FlushesPerOp(),
				EffFlushesPerOp:       r.EffFlushesPerOp(),
				CoalescedPerOp:        r.CoalescedPerOp(),
				FencesPerOp:           r.FencesPerOp(),
				CASesPerOp:            r.CASesPerOp(),
				BoundariesPerOp:       r.BoundariesPerOp(),
				ElidedBoundariesPerOp: r.ElidedBoundariesPerOp(),
				LinesPerDrain:         r.LinesPerDrain(),
				Batches:               r.Stats.Batches,
				BatchedOps:            r.Stats.BatchedOps,
				AvgBatch:              r.AvgBatch(),
			})
		}
		report.Figures = append(report.Figures, fig)
	}
	return json.MarshalIndent(report, "", "  ")
}

// RecoveryPoint is one row of the recovery-latency study: the memory
// operations each probe needs to resume a crashed process at the given
// structure size.
type RecoveryPoint struct {
	Size  uint32
	Steps map[string]uint64 // probe name -> memory operations
}

// RecoveryStudy measures every probe at every size.
func RecoveryStudy(probes []RecoveryProbe, sizes []uint32) []RecoveryPoint {
	out := make([]RecoveryPoint, 0, len(sizes))
	for _, n := range sizes {
		pt := RecoveryPoint{Size: n, Steps: map[string]uint64{}}
		for _, p := range probes {
			pt.Steps[p.Name] = p.Steps(n)
		}
		out = append(out, pt)
	}
	return out
}

// PrintRecovery renders the study, one column per probe.
func PrintRecovery(w io.Writer, probes []RecoveryProbe, points []RecoveryPoint) {
	fmt.Fprintln(w, "== recovery latency (memory operations to resume after a crash) ==")
	fmt.Fprintf(w, "%-12s", "size")
	for _, p := range probes {
		fmt.Fprintf(w, " %18s", p.Name)
	}
	fmt.Fprintln(w)
	for _, pt := range points {
		fmt.Fprintf(w, "%-12d", pt.Size)
		for _, p := range probes {
			fmt.Fprintf(w, " %18d", pt.Steps[p.Name])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

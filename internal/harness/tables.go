package harness

import (
	"fmt"

	"delayfree/internal/pmap"
	"delayfree/internal/pqueue"
	"delayfree/internal/pstack"
	"delayfree/internal/workload"
)

// The repository's workload inventory, as five fixed tables: the
// tunables, the benchmark kinds, the figures whose points run them, the
// recovery probes and the crash stressers. cmd/benchfigs,
// cmd/crashstress and the examples read these; the order of each table
// is the order every listing prints.

// Params returns every tunable with its default and help text.
func Params() []workload.Param {
	return []workload.Param{
		{Name: "batch-max", Default: 64,
			Help: "batched kinds: max operations per combiner batch"},
		// 200000 matches the default the benchfigs CLI always used, so
		// regenerated tables stay comparable with recorded ones.
		{Name: "seed-nodes", Default: 200000,
			Help: "queue family: initial queue size in nodes (paper: 1M)"},
		{Name: "attiya", Default: 0,
			Help: "queue family: 1 = use the Attiya et al. recoverable CAS (as the paper's experiments did)"},
		{Name: "read-pct", Default: 90,
			Help: "map family: percentage of Get operations"},
		{Name: "map-keys", Default: 2048,
			Help: "map family: key-space size (table sized for load factor 1/2)"},
		{Name: "map-shards", Default: 4,
			Help: "map family: segments of the pmap-sharded kind"},
		{Name: "stack-seed", Default: 50000,
			Help: "stack family: initial stack size in nodes"},
	}
}

// Kinds returns every benchmark kind, one per runner.
func Kinds() []workload.Bencher {
	return []workload.Bencher{
		{Kind: KindQueueBatched, Family: "queue", Run: runQueueBatched},
		{Kind: KindStackBatched, Family: "stack", Run: runStackBatched},
		{Kind: KindMapBatched, Family: "map", Run: runMapBatched},
		{Kind: KindMSQ, Family: "queue", Run: func(cfg Config) Result { return runMSQ(cfg, false) }},
		{Kind: KindIzraMSQ, Family: "queue", Run: func(cfg Config) Result { return runMSQ(cfg, true) }},
		{Kind: KindGeneralIzra, Family: "queue", Run: func(cfg Config) Result { return runTransformed(cfg, false, false, true) }},
		{Kind: KindNormalizedIzra, Family: "queue", Run: func(cfg Config) Result { return runTransformed(cfg, true, false, true) }},
		{Kind: KindGeneral, Family: "queue", Run: func(cfg Config) Result { return runTransformed(cfg, false, false, false) }},
		{Kind: KindGeneralOpt, Family: "queue", Run: func(cfg Config) Result { return runTransformed(cfg, false, true, false) }},
		{Kind: KindNormalized, Family: "queue", Run: func(cfg Config) Result { return runTransformed(cfg, true, false, false) }},
		{Kind: KindNormalizedOpt, Family: "queue", Run: func(cfg Config) Result { return runTransformed(cfg, true, true, false) }},
		{Kind: KindLogQueue, Family: "queue", Run: runLogQueue},
		{Kind: KindRomulus, Family: "queue", Run: runRomulus},
		{Kind: KindMapVolatile, Family: "map", Run: func(cfg Config) Result { return runMapKind(KindMapVolatile, cfg) }},
		{Kind: KindPmap, Family: "map", Run: func(cfg Config) Result { return runMapKind(KindPmap, cfg) }},
		{Kind: KindPmapSharded, Family: "map", Run: func(cfg Config) Result { return runMapKind(KindPmapSharded, cfg) }},
		{Kind: KindStackVolatile, Family: "stack", Run: runVolatileStack},
		{Kind: KindPStack, Family: "stack", Run: func(cfg Config) Result { return runPStack(cfg, false) }},
		{Kind: KindPStackOpt, Family: "stack", Run: func(cfg Config) Result { return runPStack(cfg, true) }},
	}
}

// Figures returns every figure: Section 10's Figures 5-7 and the
// repository's map, readheavy, stack and batching figures.
func Figures() []workload.Figure {
	return []workload.Figure{
		{Name: "batching", Points: batchingPoints()},
		{Name: "5", Points: plain(KindIzraMSQ, KindGeneralIzra, KindNormalizedIzra)},
		{Name: "6", Points: plain(KindGeneral, KindGeneralOpt, KindNormalized, KindNormalizedOpt, KindLogQueue, KindRomulus)},
		{Name: "7", Points: plain(KindMSQ, KindGeneral, KindNormalized, KindNormalizedOpt, KindLogQueue, KindRomulus)},
		{Name: "map", Points: plain(KindMapVolatile, KindPmap, KindPmapSharded)},
		{Name: "readheavy", Points: readHeavyPoints()},
		{Name: "stack", Points: plain(KindStackVolatile, KindPStack, KindPStackOpt)},
	}
}

// plain returns figure points that measure each kind at the run's own
// parameters, labelled with the kind's name.
func plain(kinds ...string) []workload.Point {
	out := make([]workload.Point, len(kinds))
	for i, k := range kinds {
		out[i] = workload.Point{Label: k, Kind: k}
	}
	return out
}

// readHeavyPoints sweeps the read mix: each point pins read-pct to one
// of {0, 50, 90, 99}, so one benchfigs invocation measures the whole
// Get-fraction curve for both recoverable map kinds. It is the
// read-only fast lane's acceptance figure: Get is persistence-free (zero
// flushes, fences, CASes and boundaries), so throughput rises and
// eff-flushes/op falls monotonically with the read fraction. The
// write-only point (r0) improves too — write-op *probes* ride the same
// fast lane (volatile wcas key reads, elided probe boundaries until the
// first claim) while every durability point of the write itself is
// unchanged.
func readHeavyPoints() []workload.Point {
	var out []workload.Point
	for _, rp := range []int64{0, 50, 90, 99} {
		for _, kind := range []string{KindPmap, KindPmapSharded} {
			out = append(out, workload.Point{
				Label:  fmt.Sprintf("%s-r%d", kind, rp),
				Kind:   kind,
				Params: workload.Params{"read-pct": rp},
			})
		}
	}
	return out
}

// batchingPoints sweeps batch size over every family, with the
// strongest unbatched kind of each family as the 1x reference. The map
// points pin read-pct 0 (write-only) so the batch-size curve is not
// diluted by fast-lane reads that bypass the rings anyway.
func batchingPoints() []workload.Point {
	out := append(plain(KindNormalizedOpt, KindPStackOpt),
		workload.Point{Label: "pmap-r0", Kind: KindPmap, Params: workload.Params{"read-pct": 0}})
	for _, bm := range []int64{1, 4, 16, 64, 256} {
		for _, kind := range []string{KindQueueBatched, KindStackBatched, KindMapBatched} {
			pt := workload.Point{Label: fmt.Sprintf("%s-b%d", kind, bm), Kind: kind,
				Params: workload.Params{"batch-max": bm}}
			if kind == KindMapBatched {
				pt.Params["read-pct"] = 0
			}
			out = append(out, pt)
		}
	}
	// Read-mix points at b64 show the group commit composing with the
	// read-only fast lane (producer Gets bypass the rings, so deferred
	// windows and volatile reads interleave).
	for _, rp := range []int64{50, 90} {
		out = append(out, workload.Point{Label: fmt.Sprintf("%s-b64-r%d", KindMapBatched, rp),
			Kind: KindMapBatched, Params: workload.Params{"batch-max": 64, "read-pct": rp}})
	}
	return out
}

// Probes returns the recovery-latency probes (recovery.go).
func Probes() []workload.RecoveryProbe {
	return []workload.RecoveryProbe{
		{Name: "logqueue", Steps: logQueueRecoverySteps},
		{Name: "capsule+rcas", Steps: capsuleRecoverySteps},
	}
}

// Stressers returns every crash stresser, family by family.
func Stressers() []workload.StressSpec {
	out := pmap.StressSpecs()
	out = append(out, pqueue.StressSpecs()...)
	return append(out, pstack.StressSpecs()...)
}

// Stresser returns the stresser called name.
func Stresser(name string) (workload.StressSpec, bool) {
	for _, s := range Stressers() {
		if s.Name == name {
			return s, true
		}
	}
	return workload.StressSpec{}, false
}

// Run measures the kind called kind under cfg, every tunable cfg.Params
// leaves out at its default, and reports the result under kind.
func Run(kind string, cfg Config) (Result, error) {
	for _, b := range Kinds() {
		if b.Kind != kind {
			continue
		}
		c := cfg
		c.Params = workload.Params{}
		for _, p := range Params() {
			c.Params[p.Name] = p.Default
		}
		for k, v := range cfg.Params {
			c.Params[k] = v
		}
		r := b.Run(c)
		r.Kind = kind
		return r, nil
	}
	return Result{}, fmt.Errorf("harness: unknown kind %q", kind)
}

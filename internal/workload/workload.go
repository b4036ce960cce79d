// Package workload defines the contracts every workload family in the
// repository implements, and the printers of what they measure:
//
//   - Bencher: a named benchmark kind, one per runner, that builds the
//     structure, runs one fixed-work measurement and reports throughput
//     plus per-operation persistence costs (flushes, fences, CASes,
//     capsule boundaries);
//   - Point and Figure: a figure is a named list of points compared in
//     one table, each a labelled kind at a parameter setting;
//   - Param and Config: a family's tunables (key-space size, read mix,
//     initial queue length, ...) are named integers with defaults, so
//     the benchmark config has no per-family fields;
//   - StressSpec and RunRound: scripted operations under randomized
//     crash injection in both failure models, with an exactness check
//     and the family's durable-linearizability checker;
//   - RecoveryProbe: the memory-operation cost of resuming a process
//     after a crash, as a function of structure size.
//
// The package holds no inventory. internal/harness declares the fixed
// tables of kinds, figures, params, recovery probes and stressers that
// cmd/benchfigs, cmd/crashstress and the examples read.
package workload

import (
	"fmt"
	"time"

	"delayfree/internal/pmem"
)

// Params is a per-family parameter bag: named integer tunables.
// Booleans are encoded as 0/1.
type Params map[string]int64

// Clone returns a copy of the bag (nil-safe).
func (p Params) Clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Set returns a copy of the bag with name set to v (nil-safe).
func (p Params) Set(name string, v int64) Params {
	out := p.Clone()
	out[name] = v
	return out
}

// Param describes one tunable a workload family exposes; families with
// overlapping needs share one.
type Param struct {
	Name    string
	Default int64
	Help    string
}

// Config parametrizes one benchmark measurement: the common knobs every
// family interprets the same way, plus the per-family parameter bag.
type Config struct {
	Threads int
	// Pairs is the number of operation pairs per thread (enqueue-dequeue,
	// push-pop, or two map operations); fixed-work runs give
	// deterministic comparisons on one vCPU. Every kind executes
	// 2*Pairs operations per thread.
	Pairs int
	// FlushDelay/FenceDelay are spin iterations charged per flush and
	// fence, modeling NVM persist latency.
	FlushDelay int
	FenceDelay int
	// Params holds the per-family tunables.
	Params Params
}

// Param returns a named parameter from the bag. A name the bag lacks
// panics: harness.Run fills in the default of every declared tunable
// before a runner reads one, so a missing name is not a tunable.
func (c Config) Param(name string) int64 {
	if v, ok := c.Params[name]; ok {
		return v
	}
	panic(fmt.Sprintf("workload: parameter %q is not declared", name))
}

// Result is one measured benchmark point.
type Result struct {
	// Kind names what was measured: the kind under harness.Run, the
	// figure point's label under Sweep.
	Kind    string
	Threads int
	Ops     uint64 // total operations (2 per pair)
	Elapsed time.Duration
	Stats   pmem.Stats
}

// MopsPerSec returns throughput in million operations per second.
func (r Result) MopsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds() / 1e6
}

func perOp(v, ops uint64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(v) / float64(ops)
}

// FlushesPerOp returns issued flush instructions per operation.
func (r Result) FlushesPerOp() float64 { return perOp(r.Stats.Flushes, r.Ops) }

// EffFlushesPerOp returns *effective* flushes per operation: issued
// flushes minus the repeats the write-combining layer coalesced within
// a fence epoch. This is the number of line write-backs actually
// scheduled — the quantity the paper's hand counts correspond to.
func (r Result) EffFlushesPerOp() float64 { return perOp(r.Stats.EffectiveFlushes(), r.Ops) }

// CoalescedPerOp returns coalesced (free) flushes per operation.
func (r Result) CoalescedPerOp() float64 { return perOp(r.Stats.CoalescedFlushes, r.Ops) }

// LinesPerDrain returns the mean number of distinct lines persisted
// per epoch drain. A drain is any completion of a non-empty epoch — a
// fence, a fencing CAS (the Section 10 elision), or an Auto-mode
// synthetic fence — so the metric is comparable between the Opt
// variants (which replace fences with CAS drains) and their bases.
func (r Result) LinesPerDrain() float64 {
	if r.Stats.Drains == 0 {
		return 0
	}
	return float64(r.Stats.LinesPersisted) / float64(r.Stats.Drains)
}

// FencesPerOp returns fences per operation.
func (r Result) FencesPerOp() float64 { return perOp(r.Stats.Fences, r.Ops) }

// CASesPerOp returns CAS instructions per operation.
func (r Result) CASesPerOp() float64 { return perOp(r.Stats.CASes, r.Ops) }

// AvgBatch returns the mean operations per committed combiner batch
// (ingress kinds), or 0 for kinds that do not batch.
func (r Result) AvgBatch() float64 {
	if r.Stats.Batches == 0 {
		return 0
	}
	return float64(r.Stats.BatchedOps) / float64(r.Stats.Batches)
}

// BoundariesPerOp returns *persisted* capsule boundaries per operation:
// terminal operations that committed frame state durably. Elided
// boundaries (the capsule read-only tier) are reported separately.
func (r Result) BoundariesPerOp() float64 { return perOp(r.Stats.Boundaries, r.Ops) }

// ElidedBoundariesPerOp returns read-only-tier capsule terminals per
// operation whose persistence was elided: the process had no persistent
// effects to commit, so the restart point advanced volatilely at zero
// flush/fence cost.
func (r Result) ElidedBoundariesPerOp() float64 { return perOp(r.Stats.BoundariesElided, r.Ops) }

// Bencher is one benchmark kind.
type Bencher struct {
	// Kind is the unique kind name (e.g. "normalized-opt+manual").
	Kind string
	// Family groups kinds ("queue", "map", "stack", ...).
	Family string
	// Run builds the structure and measures one fixed-work run; the
	// caller fills in the result's Kind.
	Run func(cfg Config) Result
}

// Point is one column of a figure: Kind measured with Params laid over
// the run's parameters, reported under Label. Labels such as
// "pmap-r90" (pmap at read-pct 90) name parameter settings of a kind
// rather than kinds of their own.
type Point struct {
	Label  string
	Kind   string
	Params Params
}

// Figure is a named list of points compared in one table.
type Figure struct {
	Name   string
	Points []Point
}

// StressConfig parametrizes one crash-stress round. Zero values select
// per-family defaults, so one flag set drives every stresser.
type StressConfig struct {
	Procs int
	// Ops is the per-process script length (operation pairs for the
	// queue and stack stressers, scripted operations for the map).
	Ops int
	// Crashes is the minimum number of crash events the round must
	// absorb before its script is allowed to finish (full-system
	// crashes under ganged crashing, process restarts otherwise). Zero
	// selects the stresser's default quota.
	Crashes int
	Seed    int64
	// Shared selects the shared-cache model (crashes drop a random
	// prefix of every dirty line); otherwise the private model, where
	// crashes destroy only volatile state.
	Shared bool
	// MinGap/MaxGap bound the instrumented-step gap between injected
	// crashes; zero derives livelock-safe values from the geometry, and a
	// nonzero MaxGap below MinGap is refused.
	MinGap, MaxGap int64
	// Audit enables history recording and the durable-linearizability
	// ordering audit: the stresser records every operation, the round's
	// crashes, and the recovered final state, then runs its spec's
	// Checker plus the detectability cross-check. A violation fails the
	// round and dumps a failing-history artifact.
	Audit bool
	// ArtifactDir is where a failing audit writes its artifact; empty
	// selects the OS temp directory.
	ArtifactDir string
}

// StressReport summarizes one crash-stress round.
type StressReport struct {
	Crashes  uint64 // full-system crashes absorbed
	Restarts uint64 // process restarts summed over processes
	Ops      uint64 // scripted operations executed (exactly once each)
	// Stats sums the per-process memory counters the round consumed, so
	// stress runs report the same persistence-cost metrics benches do.
	Stats pmem.Stats
}

// RecoveryProbe measures how many memory operations one scheme needs to
// resume a process after a crash, as a function of structure size.
type RecoveryProbe struct {
	Name  string
	Steps func(size uint32) uint64
}

// Sweep measures every point at every thread count through run (which
// measures one kind), each point's Params laid over cfg.Params, and
// reports each result under its point's label.
func Sweep(run func(kind string, cfg Config) (Result, error), points []Point, threads []int, cfg Config) ([]Result, error) {
	var out []Result
	for _, p := range points {
		c := cfg
		c.Params = cfg.Params.Clone()
		for k, v := range p.Params {
			c.Params[k] = v
		}
		for _, t := range threads {
			c.Threads = t
			r, err := run(p.Kind, c)
			if err != nil {
				return nil, err
			}
			r.Kind = p.Label
			out = append(out, r)
		}
	}
	return out, nil
}

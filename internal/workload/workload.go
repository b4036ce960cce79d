// Package workload defines the contracts every workload family in the
// repository implements, and the self-registration registry through
// which the three consumers — the figure runner (cmd/benchfigs), the
// crash-injection validator (cmd/crashstress), and the recovery-latency
// study — discover them.
//
// The paper's Theorem 7.1 covers *any* normalized lock-free structure;
// the registry is that theorem's engineering counterpart. A family
// (queue, map, stack, ...) registers, from its own package init:
//
//   - Benchers: named benchmark kinds, one per runner, that build the
//     structure, run one fixed-work measurement and report throughput
//     plus per-operation persistence costs (flushes, fences, CASes,
//     capsule boundaries);
//   - Figures: named lists of Points compared in one table, each a
//     labelled kind at a parameter setting;
//   - Params: the family's tunables (key-space size, read mix, initial
//     queue length, ...) as named integer parameters with defaults, so
//     consumers need no per-family configuration fields or flags;
//   - Stressers: scripted operations under randomized crash injection in
//     both failure models, with a shadow-model exactness check and the
//     family's durable-linearizability checker (StressSpec);
//   - RecoveryProbes: the memory-operation cost of resuming a process
//     after a crash, as a function of structure size.
//
// Adding a workload family is therefore a registration file per layer it
// participates in, and every consumer picks it up without modification.
package workload

import (
	"fmt"
	"sync"
	"time"

	"delayfree/internal/pmem"
)

// Params is a per-family parameter bag: named integer tunables resolved
// against the registered defaults. Booleans are encoded as 0/1.
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

// Param describes one tunable a workload family exposes. Families with
// overlapping needs may register the same name with the same default
// (the flag is shared); conflicting defaults panic at init.
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
	// Params holds the per-family tunables; missing names resolve to
	// their registered defaults.
	Params Params
}

// Param resolves a named parameter against the bag and the registered
// defaults; unknown names panic (they indicate a registration bug).
func (c Config) Param(name string) int64 {
	if v, ok := c.Params[name]; ok {
		return v
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if p, ok := reg.params[name]; ok {
		return p.Default
	}
	panic(fmt.Sprintf("workload: parameter %q was never registered", name))
}

// Result is one measured benchmark point.
type Result struct {
	// Kind names what was measured: the registered kind under Run, the
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

// Bencher is one registered benchmark kind.
type Bencher struct {
	// Kind is the unique kind name (e.g. "normalized-opt+manual").
	Kind string
	// Family groups kinds ("queue", "map", "stack", ...).
	Family string
	// Run builds the structure and measures one fixed-work run; the
	// registry fills in the result's Kind.
	Run func(cfg Config) Result
}

// Point is one column of a figure: the registered Kind measured with
// Params laid over the run's parameters, reported under Label. Labels
// such as "pmap-r90" (pmap at read-pct 90) name parameter settings of a
// kind rather than kinds of their own.
type Point struct {
	Label  string
	Kind   string
	Params Params
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
	// crashes; zero derives livelock-safe values from the geometry.
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

// registry is the process-global registration state. Families register
// from package init; the mutex also covers test registrations.
var reg = struct {
	mu        sync.Mutex
	benchers  []Bencher
	byKind    map[string]int
	figures   map[string][]Point
	figOrder  []string
	stressers []StressSpec
	byName    map[string]int
	params    map[string]Param
	paramOrd  []string
	probes    []RecoveryProbe
}{
	byKind:  map[string]int{},
	figures: map[string][]Point{},
	byName:  map[string]int{},
	params:  map[string]Param{},
}

// RegisterBencher adds a benchmark kind; duplicate kind names panic.
func RegisterBencher(b Bencher) {
	if b.Kind == "" || b.Family == "" || b.Run == nil {
		panic("workload: RegisterBencher requires Kind, Family and Run")
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, dup := reg.byKind[b.Kind]; dup {
		panic(fmt.Sprintf("workload: kind %q registered twice", b.Kind))
	}
	reg.byKind[b.Kind] = len(reg.benchers)
	reg.benchers = append(reg.benchers, b)
}

// Benchers returns every registered kind in registration order.
func Benchers() []Bencher {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return append([]Bencher(nil), reg.benchers...)
}

// LookupBencher finds a kind by name.
func LookupBencher(kind string) (Bencher, bool) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	i, ok := reg.byKind[kind]
	if !ok {
		return Bencher{}, false
	}
	return reg.benchers[i], true
}

// Families returns the distinct family names in first-registration
// order, merged across benchers and stressers.
func Families() []string {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	seen := map[string]bool{}
	var out []string
	for _, b := range reg.benchers {
		if !seen[b.Family] {
			seen[b.Family] = true
			out = append(out, b.Family)
		}
	}
	for _, s := range reg.stressers {
		if !seen[s.Family] {
			seen[s.Family] = true
			out = append(out, s.Family)
		}
	}
	return out
}

// RegisterFigure names a list of points compared in one table. The
// points' kinds need not be registered yet (init order across packages
// is not guaranteed); Run reports an unknown kind when the figure runs.
func RegisterFigure(name string, points ...Point) {
	if name == "" || len(points) == 0 {
		panic("workload: RegisterFigure requires a name and points")
	}
	for _, p := range points {
		if p.Label == "" || p.Kind == "" {
			panic(fmt.Sprintf("workload: figure %q has a point without label or kind", name))
		}
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, dup := reg.figures[name]; dup {
		panic(fmt.Sprintf("workload: figure %q registered twice", name))
	}
	reg.figures[name] = append([]Point(nil), points...)
	reg.figOrder = append(reg.figOrder, name)
}

// FigureNames returns the registered figure names in registration order.
func FigureNames() []string {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return append([]string(nil), reg.figOrder...)
}

// Figures returns a copy of the full figure table.
func Figures() map[string][]Point {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	out := make(map[string][]Point, len(reg.figures))
	for k, v := range reg.figures {
		out[k] = append([]Point(nil), v...)
	}
	return out
}

// RegisterStressSpec registers spec as a stresser run by RunRound;
// duplicate names panic, and so does a spec without a history checker,
// so no family can be stressed without its ordering audit.
func RegisterStressSpec(s StressSpec) {
	if s.Name == "" || s.Family == "" || s.Build == nil || s.Checker == nil {
		panic("workload: RegisterStressSpec requires Name, Family, Build and Checker")
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, dup := reg.byName[s.Name]; dup {
		panic(fmt.Sprintf("workload: stresser %q registered twice", s.Name))
	}
	reg.byName[s.Name] = len(reg.stressers)
	reg.stressers = append(reg.stressers, s)
}

// Stressers returns every registered stresser in registration order.
func Stressers() []StressSpec {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return append([]StressSpec(nil), reg.stressers...)
}

// LookupStresser finds a stresser by name.
func LookupStresser(name string) (StressSpec, bool) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	i, ok := reg.byName[name]
	if !ok {
		return StressSpec{}, false
	}
	return reg.stressers[i], true
}

// RegisterParams declares a family's tunables. Re-registering a name
// with the same default merges (the tunable is shared between
// families); a different default panics.
func RegisterParams(ps ...Param) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for _, p := range ps {
		if p.Name == "" {
			panic("workload: RegisterParams requires a name")
		}
		if prev, ok := reg.params[p.Name]; ok {
			if prev.Default != p.Default {
				panic(fmt.Sprintf("workload: parameter %q registered with defaults %d and %d",
					p.Name, prev.Default, p.Default))
			}
			continue
		}
		reg.params[p.Name] = p
		reg.paramOrd = append(reg.paramOrd, p.Name)
	}
}

// ParamDefs returns every registered parameter in registration order.
func ParamDefs() []Param {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	out := make([]Param, len(reg.paramOrd))
	for i, n := range reg.paramOrd {
		out[i] = reg.params[n]
	}
	return out
}

// RegisterRecoveryProbe adds a recovery-latency probe.
func RegisterRecoveryProbe(p RecoveryProbe) {
	if p.Name == "" || p.Steps == nil {
		panic("workload: RegisterRecoveryProbe requires Name and Steps")
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.probes = append(reg.probes, p)
}

// RecoveryProbes returns the registered probes in registration order.
func RecoveryProbes() []RecoveryProbe {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return append([]RecoveryProbe(nil), reg.probes...)
}

// Run measures one registered kind under cfg.
func Run(kind string, cfg Config) (Result, error) {
	b, ok := LookupBencher(kind)
	if !ok {
		return Result{}, fmt.Errorf("workload: unknown kind %q", kind)
	}
	r := b.Run(cfg)
	r.Kind = kind
	return r, nil
}

// RunStress runs one round of the named registered stresser.
func RunStress(name string, cfg StressConfig) (StressReport, error) {
	s, ok := LookupStresser(name)
	if !ok {
		names := make([]string, 0, len(reg.stressers))
		for _, st := range Stressers() {
			names = append(names, st.Name)
		}
		return StressReport{}, fmt.Errorf("workload: unknown stresser %q (registered: %v)", name, names)
	}
	return RunRound(s, cfg)
}

// Sweep measures every point at every thread count, each point's Params
// laid over cfg.Params, and reports each result under its point's label.
func Sweep(points []Point, threads []int, cfg Config) ([]Result, error) {
	var out []Result
	for _, p := range points {
		c := cfg
		c.Params = cfg.Params.Clone()
		for k, v := range p.Params {
			c.Params[k] = v
		}
		for _, t := range threads {
			c.Threads = t
			r, err := Run(p.Kind, c)
			if err != nil {
				return nil, err
			}
			r.Kind = p.Label
			out = append(out, r)
		}
	}
	return out, nil
}

package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"delayfree/internal/pmem"
)

// The modelled NVM latencies, in spin iterations: the repository's
// defaults (harness.DefaultConfig). persist_cost_per_op charges them.
const (
	flushDelay = 250
	fenceDelay = 120
)

// segStat is one timed segment of a workload: a fixed op count for the
// closed loops, a fixed schedule for the open loop.
type segStat struct {
	ops      int
	wallS    float64
	cpuS     float64
	gc       uint32
	stats    pmem.Stats // summed over every simulated process
	p50, p99 float64    // µs, over this segment's samples
	samples  int
	dropped  int
	traced   bool
	setupS   float64 // untimed set-up this segment needed first (a rebuilt instance), 0 if none
}

func (s segStat) throughput() float64 { return ratio(float64(s.ops), s.wallS) / 1e6 }

// persistCost is what the modelled NVM charges per completed op.
func (s segStat) persistCost() float64 {
	return ratio(float64(s.stats.EffectiveFlushes())*flushDelay+float64(s.stats.Fences)*fenceDelay, float64(s.ops))
}

// memInstr counts memory instructions; bare Step polls are excluded, so
// an idle combiner does not inflate the delay factor.
func memInstr(s pmem.Stats) float64 {
	return float64(s.Reads + s.Writes + s.CASes + s.Flushes + s.Fences)
}

func (s segStat) instrPerOp() float64 { return ratio(memInstr(s.stats), float64(s.ops)) }

// meter brackets a timed region: the collector is off inside it (any
// cycle that still happens is counted in gc), and CPU time is the
// process's user+sys over the region.
type meter struct {
	t0     int64
	ru0    syscall.Rusage
	gc0    uint32
	gcPrev int
}

func beginTimed() meter {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := meter{gc0: ms.NumGC, gcPrev: debug.SetGCPercent(-1)}
	rusage(&m.ru0)
	m.t0 = nanos()
	return m
}

func (m meter) end() (wallS, cpuS float64, gc uint32) {
	t1 := nanos()
	var ru syscall.Rusage
	rusage(&ru)
	debug.SetGCPercent(m.gcPrev)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(t1-m.t0) / 1e9, cpuSeconds(&ru) - cpuSeconds(&m.ru0), ms.NumGC - m.gc0
}

func rusage(ru *syscall.Rusage) {
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, ru); err != nil {
		panic(fmt.Sprintf("bench: getrusage: %v", err)) // cannot fail for RUSAGE_SELF with a valid pointer
	}
}

func cpuSeconds(ru *syscall.Rusage) float64 {
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// peakRSSMB is the process's peak resident set: VmHWM of
// /proc/self/status, which starts at zero when the binary is exec'ed.
// (getrusage's ru_maxrss does not: exec carries over the forking parent's
// resident set, so a small workload would report its launcher's size.)
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		panic(fmt.Sprintf("bench: peak RSS: %v", err)) // Linux-only benchmark; procfs is always there
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			if err != nil {
				panic(fmt.Sprintf("bench: peak RSS: parsing %q: %v", line, err))
			}
			return kb / 1024
		}
	}
	panic("bench: peak RSS: no VmHWM line in /proc/self/status")
}

// outDir is where trace files (and a full set's report files) land.
const outDir = "bench/out"

// runCfg parametrises one workload run. The command line sets seed,
// seconds and trace; the rest is for the rate sweep and the tests.
type runCfg struct {
	seed     int64
	seconds  float64 // measured time budget
	trace    bool
	rate     int    // open loop: offered ops/s (0 = the workload's 200000; the rate sweep sets it)
	outDir   string // trace files land here: outDir, or a test's temporary directory
	segments int    // tests: >0 pins the measured segment count instead of seconds
	scale    int    // tests: divides segment sizes
	corrupt  bool   // tests: damage the result before verification
}

func (c runCfg) size(n int) int {
	if c.scale > 1 {
		n /= c.scale
	}
	return max(n, 64)
}

// env is one built workload instance.
type env interface {
	// segment runs the k-th segment (0 is the warm-up). tr is non-nil
	// for traced segments.
	segment(k int, tr *tracer) segStat
	// finish stops the workload, verifies its output and reports how
	// many operations were attempted (warm-up included) and how many failed.
	finish() (attempted, failed int)
	// counts adds the workload's own per-layer counts (those that need no
	// tracing) after finish.
	counts(out map[string]float64)
}

type workloadDef struct {
	name  string
	why   string
	build func(cfg runCfg) env
	// baseline runs the volatile original on the same op stream and returns
	// its memory instructions per op: delay_factor's denominator.
	baseline func(cfg runCfg) float64
}

var workloads = []workloadDef{
	{"queue_inline", "paper Fig 6/7: one client alternates enqueue/dequeue through capsule, rcas, qnode, pqueue, pmem; wcas, pmap, ingress idle", buildQueueInline,
		func(cfg runCfg) float64 { return queueBaseline(cfg, true) }},
	{"map_inline_r90", "90% Get on the read-only fast lane beside 10% Put/Delete/Cas on the same wcas cells; rcas, qnode, ingress idle", buildMapInline, mapInlineBaseline},
	{"queue_ingress_sat", "ring + combiner + PackedPool at full batches, one capsule span per batch; per-op capsule/rcas cost amortised away", buildQueueIngress,
		func(cfg runCfg) float64 { return queueBaseline(cfg, false) }},
	{"map_ingress_sat", "wcas group commit with windows that fill (closed loop, 4096 tokens): the BENCH_7 mechanism at saturation", buildMapIngressSat, mapIngressBaseline},
	{"map_ingress_paced", "same layers, open loop at 200k ops/s: windows never fill, so the ack waits for the window to close", buildMapIngressPaced, mapIngressBaseline},
	{"stack_crash", "one client under seeded full-system crashes: the only workload where runtime restart, capsule reload and rcas recovery run, so p99 is a crash-straddling op", buildStackCrash, stackBaseline},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// setupRepeats is how many times a workload is built per run; setup_s
// is the median, so one page-fault storm does not own the number. Only
// the system's own set-up is timed: the volatile baseline is the
// benchmark's overhead and runs outside.
const setupRepeats = 9

// report is everything one workload run produced.
type report struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Segments  int     `json:"segments"`
	Samples   int     `json:"p99_samples_per_segment_min"`
	Dropped   int     `json:"samples_dropped"`
	GCCycles  uint32  `json:"gc_cycles"`
	Elapsed   float64 `json:"elapsed_s"`
	// Metrics holds the end-to-end metrics (untraced segments only);
	// PerSegment the per-segment values behind each median, which the
	// comparison mode uses for its spread test.
	Metrics    map[string]float64   `json:"metrics"`
	PerSegment map[string][]float64 `json:"per_segment"`
	// Counts holds the per-op counts of the per-layer table (they need no
	// tracing); Layer the whole table (trace mode only).
	Counts map[string]float64 `json:"counts"`
	Layer  map[string]float64 `json:"layer,omitempty"`
}

// runWorkload builds, warms, measures and verifies one workload.
func runWorkload(def workloadDef, cfg runCfg) report {
	start := time.Now()
	rep := report{Workload: def.name, Seed: cfg.seed,
		Metrics: map[string]float64{}, PerSegment: map[string][]float64{}}

	// Build several times and keep the last: setup_s is the median. Each
	// build starts from the same state: a collected heap whose free memory
	// is back with the OS, and the collector off. Otherwise a build of a
	// few milliseconds reads 2 ms or 25 ms according to how much of the
	// previous build's memory it happens to reuse, and its first large
	// allocation starts a collection cycle.
	var setups, rebuilds []float64
	var e env
	for i := 0; i < setupRepeats; i++ {
		e = nil
		debug.FreeOSMemory()
		m := beginTimed()
		e = def.build(cfg)
		wall, _, _ := m.end()
		setups = append(setups, wall)
	}
	base := def.baseline(cfg)
	var probes map[string]float64
	if cfg.trace {
		probes = runProbes()
	}

	e.segment(0, nil) // warm-up: first-touch page faults, free lists, bucket claims

	// all holds every timed segment in the order it ran. A traced run
	// alternates untraced and traced segments, so that slow drift of the
	// host reads as noise in trace_overhead_share, not as overhead.
	var all []segStat
	var tr *tracer
	minSegs, pinned := 3, cfg.segments
	if cfg.trace {
		tr = newTracer(def.name)
		minSegs, pinned = 2*minSegs, 2*pinned
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	t0 := time.Now()
	enough := func() bool {
		if pinned > 0 {
			return len(all) >= pinned
		}
		return len(all) >= minSegs && time.Since(t0) >= budget
	}
	for !enough() {
		var t *tracer
		if len(all)%2 == 1 {
			t = tr
		}
		s := e.segment(len(all)+1, t)
		if s.setupS > 0 {
			rebuilds = append(rebuilds, s.setupS)
		}
		all = append(all, s)
	}

	rep.Attempted, rep.Failed = e.finish()
	rep.Correct = rep.Failed == 0
	if ls, ok := e.(interface{ settledStats() []pmem.Stats }); ok {
		// Counters of a process that kept running between segments can
		// only be read now that it has stopped; [0] is the warm-up.
		for i, st := range ls.settledStats()[1:] {
			all[i].stats = st
		}
	}
	var plain, traced []segStat
	for _, s := range all {
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	rep.Segments = len(plain)

	col := func(f func(segStat) float64) []float64 {
		out := make([]float64, len(plain))
		for i, s := range plain {
			out[i] = f(s)
		}
		return out
	}
	// A workload that rebuilds its instance for every segment pays that
	// on top of the first build: set-up is one build plus one rebuild.
	rebuild := median(rebuilds)
	for i := range setups {
		setups[i] += rebuild
	}
	per := map[string][]float64{
		"throughput_mops":     col(segStat.throughput),
		"op_p50_us":           col(func(s segStat) float64 { return s.p50 }),
		"op_p99_us":           col(func(s segStat) float64 { return s.p99 }),
		"persist_cost_per_op": col(segStat.persistCost),
		"delay_factor":        col(func(s segStat) float64 { return ratio(s.instrPerOp(), base) }),
		"cpu_us_per_op":       col(func(s segStat) float64 { return ratio(s.cpuS*1e6, float64(s.ops)) }),
		"setup_s":             setups,
	}
	rep.PerSegment = per
	// A level metric is the median of the better half of its segments
	// (goodQuartile says why). The tail is the plain median of the
	// segments' p99s: a p99 measures the disturbances themselves (on
	// queue_inline it reads 6 us, or 3.4 us in a segment where fewer than
	// 1 % of ops met one), so its better quartile would report the rare
	// undisturbed segments. Set-up is the plain median of the builds.
	rep.Metrics["throughput_mops"] = goodQuartile(per["throughput_mops"], true)
	rep.Metrics["op_p50_us"] = goodQuartile(per["op_p50_us"], false)
	rep.Metrics["cpu_us_per_op"] = goodQuartile(per["cpu_us_per_op"], false)
	rep.Metrics["op_p99_us"] = median(per["op_p99_us"])
	rep.Metrics["setup_s"] = median(setups)
	// The two count metrics are totals over the measured segments: with
	// one client they are exact, and a total stays exact.
	tot := total(plain)
	rep.GCCycles, rep.Dropped = tot.gc, tot.dropped
	rep.Counts = countMetrics(tot)
	e.counts(rep.Counts)
	rep.Samples = plain[0].samples
	for _, s := range plain {
		rep.Samples = min(rep.Samples, s.samples)
	}
	rep.Metrics["persist_cost_per_op"] = tot.persistCost()
	rep.Metrics["delay_factor"] = ratio(tot.instrPerOp(), base)
	rep.Metrics["peak_rss_mb"] = peakRSSMB()
	rep.PerSegment["peak_rss_mb"] = []float64{rep.Metrics["peak_rss_mb"]}

	if cfg.trace {
		rep.Layer = layerMetrics(def.name, rep.Counts, plain, traced, probes, tr)
		if err := tr.write(cfg.outDir); err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing trace: %v\n", err)
			rep.Correct = false
		}
	}
	rep.Elapsed = time.Since(start).Seconds()
	return rep
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one reported metric. BENCHMARK.json carries the same
// names and units plus direction and regression bound; bench_test.go
// holds the two lists equal.
type metricDef struct {
	Name, Unit string
}

// endToEnd is what a caller of the system would feel, reported for
// every workload from untraced segments only. (failed_ops_share is
// printed too, but it is 0 on a healthy run, so the manifest carries it
// as the attempted/failed counts instead of a bounded metric.)
var endToEnd = []metricDef{
	{"throughput_mops", "Mops/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"persist_cost_per_op", "delay_units"},
	{"delay_factor", "ratio"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer decomposes the above by the repository's runtime modules.
// Counts are pmem.Stats deltas over the untraced segments; *_ns unit
// costs are set-up micro-probes; *_us_p50 spans come from the traced
// segments. A metric a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"pmem.reads_per_op", "count"},
	{"pmem.writes_per_op", "count"},
	{"pmem.cas_per_op", "count"},
	{"pmem.flushes_per_op", "count"},
	{"pmem.eff_flushes_per_op", "count"},
	{"pmem.fences_per_op", "count"},
	{"pmem.steps_per_op", "count"},
	{"pmem.coalesced_share", "ratio"},
	{"pmem.lines_per_drain", "count"},
	{"pmem.read_ns", "ns"},
	{"pmem.write_ns", "ns"},
	{"pmem.cas_ns", "ns"},
	{"pmem.flush_ns", "ns"},
	{"pmem.fence_ns", "ns"},
	{"pmem.flush_host_ns", "ns"},
	{"pmem.fence_host_ns", "ns"},
	{"pmem.delay_share", "ratio"},
	{"pmem.host_share", "ratio"},
	{"proc.step_ns", "ns"},
	{"proc.restarts", "count"},
	{"proc.restart_us_p50", "us"},
	{"capsule.boundaries_per_op", "count"},
	{"capsule.elided_share", "ratio"},
	{"capsule.invoke_ns", "ns"},
	{"capsule.invoke_ro_ns", "ns"},
	{"capsule.recover_us_p50", "us"},
	{"capsule.recover_steps_p50", "count"},
	{"rcas.cas_ns", "ns"},
	{"rcas.read_ns", "ns"},
	{"rcas.recover_ns", "ns"},
	{"wcas.read_ns", "ns"},
	{"wcas.read_volatile_ns", "ns"},
	{"wcas.write_ns", "ns"},
	{"wcas.cas_ns", "ns"},
	{"wcas.batch_write_ns", "ns"},
	{"wcas.close_window_ns", "ns"},
	{"qnode.alloc_free_ns", "ns"},
	{"qnode.packed_alloc_ns", "ns"},
	{"pqueue.enq_us_p50", "us"},
	{"pqueue.deq_us_p50", "us"},
	{"pqueue.batch_enq_ns_per_op", "ns"},
	{"pstack.push_us_p50", "us"},
	{"pstack.pop_us_p50", "us"},
	{"pstack.cas_per_op", "count"},
	{"pstack.straddled_op_us_p50", "us"},
	{"pstack.straddled_share", "ratio"},
	{"pmap.get_us_p50", "us"},
	{"pmap.put_us_p50", "us"},
	{"pmap.delete_us_p50", "us"},
	{"pmap.cas_us_p50", "us"},
	{"pmap.batch_apply_ns_per_op", "ns"},
	{"pmap.mini_fences_per_kop", "count"},
	{"ingress.publish_ns_p50", "ns"},
	{"ingress.publish_retry_share", "ratio"},
	{"ingress.ring_wait_us_p50", "us"},
	{"ingress.apply_us_p50", "us"},
	{"ingress.commit_wait_us_p50", "us"},
	{"ingress.batch_size_mean", "count"},
	{"ingress.batch_size_p50", "count"},
	{"ingress.combiner_busy_share", "ratio"},
	{"ingress.fences_per_batch", "count"},
	{"ingress.gen_late_us_p99", "us"},
	{"ingress.backlog_end_ops", "count"},
	{"ingress.ack_late_share", "ratio"},
	{"cost_model.ns_per_op", "ns"},
	{"cost_model.explained_share", "ratio"},
	{"cost_model.residual_ns", "ns"},
	{"trace_overhead_share", "ratio"},
	{"gc_cycles", "count"},
}

// countMetrics derives the per-op counts of the per-layer table from the
// pmem.Stats delta of the measured segments. They need no tracing, so
// every report carries them.
func countMetrics(tot segStat) map[string]float64 {
	ops := float64(tot.ops)
	st := tot.stats
	return map[string]float64{
		"pmem.reads_per_op":         ratio(float64(st.Reads), ops),
		"pmem.writes_per_op":        ratio(float64(st.Writes), ops),
		"pmem.cas_per_op":           ratio(float64(st.CASes), ops),
		"pmem.flushes_per_op":       ratio(float64(st.Flushes), ops),
		"pmem.eff_flushes_per_op":   ratio(float64(st.EffectiveFlushes()), ops),
		"pmem.fences_per_op":        ratio(float64(st.Fences), ops),
		"pmem.steps_per_op":         ratio(float64(st.Steps), ops),
		"pmem.coalesced_share":      ratio(float64(st.CoalescedFlushes), float64(st.Flushes)),
		"pmem.lines_per_drain":      ratio(float64(st.LinesPersisted), float64(st.Drains)),
		"capsule.boundaries_per_op": ratio(float64(st.Boundaries), ops),
		"capsule.elided_share":      ratio(float64(st.BoundariesElided), float64(st.Boundaries+st.BoundariesElided)),
		"ingress.batch_size_mean":   ratio(float64(st.BatchedOps), float64(st.Batches)),
		"ingress.fences_per_batch":  ratio(float64(st.Fences), float64(st.Batches)),
	}
}

// total sums the segments' ops, times and counters.
func total(segs []segStat) (tot segStat) {
	for _, s := range segs {
		tot.ops += s.ops
		tot.wallS += s.wallS
		tot.cpuS += s.cpuS
		tot.gc += s.gc
		tot.dropped += s.dropped
		tot.stats.Add(s.stats)
	}
	return tot
}

// layerMetrics assembles the per-layer table of a traced run.
func layerMetrics(workload string, counts map[string]float64, plain, traced []segStat, probes map[string]float64, tr *tracer) map[string]float64 {
	tot := total(plain)
	out := map[string]float64{}
	for k, v := range counts {
		out[k] = v
	}
	for k, v := range probes {
		out[k] = v
	}
	ops := float64(tot.ops)

	// Modelled spin versus host work, per op, against the busy time per
	// op (CPU time: it counts both goroutines where there are two).
	busyNS := ratio(tot.cpuS*1e9, ops)
	eff, fences := out["pmem.eff_flushes_per_op"], out["pmem.fences_per_op"]
	delayNS := eff*(probes["pmem.flush_ns"]-probes["pmem.flush_host_ns"]) +
		fences*(probes["pmem.fence_ns"]-probes["pmem.fence_host_ns"])
	hostNS := out["pmem.reads_per_op"]*probes["pmem.read_ns"] +
		out["pmem.writes_per_op"]*probes["pmem.write_ns"] +
		out["pmem.cas_per_op"]*probes["pmem.cas_ns"] +
		out["pmem.flushes_per_op"]*probes["pmem.flush_host_ns"] +
		fences*probes["pmem.fence_host_ns"]
	out["pmem.delay_share"] = ratio(delayNS, busyNS)
	out["pmem.host_share"] = ratio(hostNS, busyNS)

	// The cost model: what the counts and unit costs predict for one op,
	// against the measured wall time per op. Meaningful on the inline
	// workloads, where one goroutine does everything.
	wallNS := ratio(tot.wallS*1e9, ops)
	model := delayNS + hostNS + probes["capsule.invoke_ns"]
	out["cost_model.ns_per_op"] = model
	out["cost_model.explained_share"] = ratio(model, wallNS)
	out["cost_model.residual_ns"] = wallNS - model

	col := func(ss []segStat) []float64 {
		o := make([]float64, len(ss))
		for i, s := range ss {
			o[i] = s.throughput()
		}
		return o
	}
	out["trace_overhead_share"] = 1 - ratio(median(col(traced)), median(col(plain)))
	out["gc_cycles"] = float64(tot.gc + total(traced).gc)

	for _, name := range []string{"pqueue.enq", "pqueue.deq", "pstack.push", "pstack.pop",
		"pmap.get", "pmap.put", "pmap.delete", "pmap.cas"} {
		out[name+"_us_p50"] = tr.p50(name + "_us")
	}
	out["pstack.straddled_op_us_p50"] = tr.p50("pstack.straddled_us")
	out["pstack.straddled_share"] = ratio(tr.sums["straddled_ops"], tr.sums["ops"])
	out["proc.restart_us_p50"] = tr.p50("proc.restart_us")
	out["capsule.recover_us_p50"] = tr.p50("capsule.recover_us")
	out["capsule.recover_steps_p50"] = tr.p50("capsule.recover_steps")
	out["proc.restarts"] = tr.sums["restarts"]

	out["ingress.publish_ns_p50"] = tr.p50("ingress.publish_us") * 1e3
	out["ingress.ring_wait_us_p50"] = tr.p50("ingress.ring_wait_us")
	out["ingress.apply_us_p50"] = tr.p50("ingress.apply_us")
	out["ingress.commit_wait_us_p50"] = tr.p50("ingress.commit_wait_us")
	out["ingress.batch_size_p50"] = tr.p50("ingress.batch_size")
	out["ingress.gen_late_us_p99"] = tr.p50("ingress.gen_late_us_p99")
	out["ingress.backlog_end_ops"] = ratio(tr.sums["backlog_end"], float64(len(traced)))
	out["ingress.publish_retry_share"] = ratio(tr.sums["publish_retries"], tr.sums["publish_attempts"])
	out["ingress.combiner_busy_share"] = ratio(tr.sums["apply_ns"]/1e9, total(traced).wallS)
	applyPerOp := ratio(tr.sums["apply_ns"], tr.sums["batch_ops"])
	switch workload {
	case "queue_ingress_sat":
		out["pqueue.batch_enq_ns_per_op"] = applyPerOp
	case "map_ingress_sat", "map_ingress_paced":
		out["pmap.batch_apply_ns_per_op"] = applyPerOp
	}
	for _, d := range perLayer {
		if _, ok := out[d.Name]; !ok {
			out[d.Name] = 0
		}
	}
	return out
}

// manifest is BENCHMARK.json: the contract the driver checks, and the
// bounds the comparison mode judges by.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// manifestPath is relative to the repository root, where the benchmark runs.
const manifestPath = "BENCHMARK.json"

func readManifest(path string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, fmt.Errorf("reading manifest: %w", err)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("decoding %s: %w", path, err)
	}
	return m, nil
}

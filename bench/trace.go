package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Tracing is done from outside: the benchmark times its own calls into
// each layer and wraps the callbacks it hands to ingress. Records live
// in arrays preallocated for one segment; after the segment (untimed)
// they are folded into per-segment medians and the first few are kept
// for the trace file. End-to-end numbers never come from traced
// segments.

// opRec is one inline operation: its type and the pmem.Stats delta it
// cost stand in for child spans.
type opRec struct {
	start, end int64
	kind       uint8
	straddled  bool // a full-system crash landed inside the op
	steps      uint32
	flushes    uint32
	fences     uint32
	cases      uint32
}

// ingRec is one operation through ingress. due is the open loop's
// scheduled send time (equal to pubStart in the closed loops).
type ingRec struct {
	due, pubStart, pubEnd, ack int64
}

// batchRec is one apply callback: the span every op of the batch shares,
// joined back to ops by the contiguous token range (single producer).
type batchRec struct {
	first, last uint64
	start, end  int64
	fences      uint32
	flushes     uint32
}

// restartRec is one process's view of one full-system crash.
type restartRec struct {
	crash, reentry, recovered int64
	steps                     uint64 // Stats.Steps from re-entry to the first newly completed op
}

// traceKeep bounds the root spans written per workload; the metrics use
// every record.
const traceKeep = 2000

type tracer struct {
	workload string
	lanes    []*[]opRec // one per client goroutine; pointers stay valid as lanes are added
	ing      []ingRec   // ing[i] is the op with token ingFirst+i+1
	ingFirst uint64
	batches  []batchRec
	restarts []*[]restartRec // one per client goroutine

	p50s map[string][]float64 // per traced segment: median of a span kind, µs
	sums map[string]float64   // counters accumulated over traced segments

	spans []span // kept for the trace file
}

// span is the trace file's record: name, start, end, and the span that
// caused it; spans of one operation share its id.
type span struct {
	Name   string            `json:"name"`
	ID     uint64            `json:"id"`
	Parent string            `json:"parent,omitempty"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]uint64 `json:"attrs,omitempty"`
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, p50s: map[string][]float64{}, sums: map[string]float64{}}
}

// lane returns client i's op buffer, emptied and with room for n records.
func (t *tracer) lane(i, n int) *[]opRec { return laneOf(&t.lanes, i, n) }

func (t *tracer) restartLane(i, n int) *[]restartRec { return laneOf(&t.restarts, i, n) }

func laneOf[T any](lanes *[]*[]T, i, n int) *[]T {
	for len(*lanes) <= i {
		*lanes = append(*lanes, new([]T))
	}
	l := (*lanes)[i]
	if cap(*l) < n {
		*l = make([]T, 0, n)
	}
	*l = (*l)[:0]
	return l
}

// ingress readies the buffers for a segment of nOps operations whose
// tokens follow first.
func (t *tracer) ingress(first uint64, nOps, nBatches int) {
	t.ingFirst = first
	if cap(t.ing) < nOps {
		t.ing = make([]ingRec, nOps)
	}
	t.ing = t.ing[:nOps]
	if cap(t.batches) < nBatches {
		t.batches = make([]batchRec, 0, nBatches)
	}
	t.batches = t.batches[:0]
}

func (t *tracer) addP50(name string, us []float64) {
	if len(us) > 0 {
		t.p50s[name] = append(t.p50s[name], median(us))
	}
}

// p50 is the median over traced segments of a span kind's per-segment
// median; 0 when the workload never produced that span.
func (t *tracer) p50(name string) float64 { return median(t.p50s[name]) }

// foldOps folds the inline-op lanes: per op type, the segment's median
// latency goes under prefix+kind+"_us".
func (t *tracer) foldOps(prefix string, kinds []string) {
	byKind := make([][]float64, len(kinds))
	var straddled []float64
	for li, lane := range t.lanes {
		for i, r := range *lane {
			us := float64(r.end-r.start) / 1e3
			byKind[r.kind] = append(byKind[r.kind], us)
			if r.straddled {
				straddled = append(straddled, us)
			}
			if len(t.spans) < traceKeep {
				t.spans = append(t.spans, span{
					Name: "op." + kinds[r.kind], ID: uint64(li)<<32 | uint64(i), Start: r.start, End: r.end,
					Attrs: map[string]uint64{"steps": uint64(r.steps), "flushes": uint64(r.flushes),
						"fences": uint64(r.fences), "cas": uint64(r.cases)},
				})
			}
		}
	}
	for k, us := range byKind {
		t.addP50(prefix+kinds[k]+"_us", us)
	}
	t.addP50(prefix+"straddled_us", straddled)
	for _, lane := range t.lanes {
		t.sums["ops"] += float64(len(*lane))
	}
	t.sums["straddled_ops"] += float64(len(straddled))
}

// foldIngress joins ops to their apply span by token range and folds
// the four child spans of every op.
func (t *tracer) foldIngress() {
	n := len(t.ing)
	pub := make([]float64, 0, n)
	wait := make([]float64, 0, n)
	commit := make([]float64, 0, n)
	late := make([]float64, 0, n)
	apply := make([]float64, 0, len(t.batches))
	sizes := make([]float64, 0, len(t.batches))
	var fences, applyNS float64
	for bi, b := range t.batches {
		apply = append(apply, float64(b.end-b.start)/1e3)
		sizes = append(sizes, float64(b.last-b.first+1))
		fences += float64(b.fences)
		applyNS += float64(b.end - b.start)
		for tok := b.first; tok <= b.last && tok-t.ingFirst <= uint64(n); tok++ {
			r := t.ing[tok-t.ingFirst-1]
			pub = append(pub, float64(r.pubEnd-r.pubStart)/1e3)
			wait = append(wait, float64(b.start-r.pubEnd)/1e3)
			commit = append(commit, float64(r.ack-b.end)/1e3)
			late = append(late, float64(r.pubStart-r.due)/1e3)
			if len(t.spans)+5 <= traceKeep {
				id := tok
				t.spans = append(t.spans,
					span{Name: "op", ID: id, Start: r.due, End: r.ack},
					span{Name: "ingress.publish", ID: id, Parent: "op", Start: r.pubStart, End: r.pubEnd},
					span{Name: "ingress.ring_wait", ID: id, Parent: "op", Start: r.pubEnd, End: b.start},
					span{Name: "ingress.apply", ID: id, Parent: "op", Start: b.start, End: b.end,
						Attrs: map[string]uint64{"batch": uint64(bi), "first_token": b.first, "last_token": b.last, "fences": uint64(b.fences)}},
					span{Name: "ingress.commit_wait", ID: id, Parent: "op", Start: b.end, End: r.ack},
				)
			}
		}
	}
	t.addP50("ingress.publish_us", pub)
	t.addP50("ingress.ring_wait_us", wait)
	t.addP50("ingress.commit_wait_us", commit)
	t.addP50("ingress.apply_us", apply)
	t.addP50("ingress.batch_size", sizes)
	if len(late) > 0 {
		t.p50s["ingress.gen_late_us_p99"] = append(t.p50s["ingress.gen_late_us_p99"], quantile(late, 0.99))
	}
	t.sums["batches"] += float64(len(t.batches))
	t.sums["batch_ops"] += float64(len(pub))
	t.sums["batch_fences"] += fences
	t.sums["apply_ns"] += applyNS
}

// foldRestarts folds the crash records of every client.
func (t *tracer) foldRestarts() {
	var restart, recoverUS, steps []float64
	for li, lane := range t.restarts {
		for i, r := range *lane {
			if r.reentry == 0 || r.recovered == 0 {
				continue // the segment ended before this restart completed an op
			}
			restart = append(restart, float64(r.reentry-r.crash)/1e3)
			recoverUS = append(recoverUS, float64(r.recovered-r.reentry)/1e3)
			steps = append(steps, float64(r.steps))
			if len(t.spans)+2 <= traceKeep {
				id := uint64(li)<<32 | uint64(i)
				t.spans = append(t.spans,
					span{Name: "proc.restart", ID: id, Start: r.crash, End: r.reentry},
					span{Name: "capsule.recover", ID: id, Parent: "proc.restart", Start: r.reentry, End: r.recovered,
						Attrs: map[string]uint64{"steps": r.steps}})
			}
		}
	}
	t.addP50("proc.restart_us", restart)
	t.addP50("capsule.recover_us", recoverUS)
	t.addP50("capsule.recover_steps", steps)
	t.sums["restarts"] += float64(len(restart))
}

// write stores the kept spans as bench/out/trace-<workload>.json.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", dir, err)
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{t.workload, t.spans})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

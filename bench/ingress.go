package main

import (
	"runtime/debug"
	"sync/atomic"

	"delayfree/internal/capsule"
	"delayfree/internal/ingress"
	"delayfree/internal/pmap"
	"delayfree/internal/pmem"
	"delayfree/internal/pqueue"
	"delayfree/internal/proc"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
)

// The three ingress workloads: one producer (the benchmark's goroutine)
// publishes records into the MPSC ring, one combiner process drains and
// applies them. Every record carries Done/Token, and an op is finished
// when the producer sees its token: single producer, single combiner and
// a FIFO ring mean tokens are acknowledged in order, so one shared Done
// cell holds the highest acknowledged token.

const (
	ingressBatchMax = 64
	ingressRing     = 256 // harness.ringCapacity(64)
	combinerPid     = 1   // process 0 stands for the producer: it only preloads the map

	queueTokens    = 256
	queueIngSegOps = 1 << 20
	mapTokens      = 4096
	mapBatchWindow = 2048
	mapIngSegOps   = 1 << 20

	pacedRate    = 200000 // ops/s
	pacedSegSecs = 1

	// ackLimitUS is the open loop's latency limit on op_p99_us: twice the
	// first op_p99_us measured for map_ingress_paced on the reference box
	// (10.3 ms: the 2048-swing window takes 10.24 ms to fill at 200k
	// ops/s). Fixed. The rate sweep judges each rate against it, and
	// ingress.ack_late_share reports the share of single ops beyond it.
	ackLimitUS = 20600
)

// tap is what the benchmark's apply callback shares with the producer.
// The combiner's Stats may only be read on its own goroutine, so the
// callback snapshots them the first time it runs in each segment; the
// snapshot for segment k+1 closes segment k.
type tap struct {
	seg    atomic.Int64 // set by the producer before a segment's first publish
	seen   int64        // combiner-private
	snaps  []pmem.Stats // snaps[k]: combiner stats when segment k's first batch arrived
	tracer atomic.Pointer[tracer]
}

func (t *tap) enter(c *capsule.Ctx) {
	if k := t.seg.Load(); k != t.seen {
		t.seen = k
		for int64(len(t.snaps)) <= k {
			t.snaps = append(t.snaps, c.Mem().Stats)
		}
	}
}

// span records one apply callback when the segment is traced.
func (t *tap) span(c *capsule.Ctx, batch []ingress.Record, body func()) {
	tr := t.tracer.Load()
	if tr == nil {
		body()
		return
	}
	s0 := c.Mem().Stats
	t0 := nanos()
	body()
	t1 := nanos()
	d := c.Mem().Stats.Sub(s0)
	if len(tr.batches) < cap(tr.batches) {
		tr.batches = append(tr.batches, batchRec{first: batch[0].Token, last: batch[len(batch)-1].Token,
			start: t0, end: t1, fences: uint32(d.Fences), flushes: uint32(d.Flushes)})
	}
}

// producer drives one segment's worth of records through a ring.
type producer struct {
	ring    *ingress.Ring
	done    atomic.Uint64
	tokens  uint64  // most unacknowledged ops the closed loop holds
	tpub    []int64 // publish (or due) time of the in-flight ops, by token
	samp    *sampler
	stride  uint64
	retries uint64
	tries   uint64
	late    int    // open loop: ops acknowledged after ackLimitUS
	backlog uint64 // open loop: unacknowledged ops when the schedule's last op was sent
}

func newProducer(ring *ingress.Ring, tokens, segOps int) *producer {
	stride := 1
	for segOps/stride > 1<<18 {
		stride *= 2
	}
	return &producer{ring: ring, tokens: uint64(tokens), tpub: make([]int64, tokens),
		samp: newSampler(segOps/stride + 1), stride: uint64(stride)}
}

// closed publishes n records (tokens first+1 … first+n), never holding
// more than p.tokens unacknowledged, and returns when all are
// acknowledged. rec fills in the op for index i.
func (p *producer) closed(first uint64, n int, tr *tracer, rec func(i uint64, r *ingress.Record)) {
	r := ingress.Record{Done: &p.done}
	next, acked, end := first, first, first+uint64(n)
	mask := p.tokens - 1
	drawn := false // r already holds op `next` (a full ring refused it)
	for acked < end {
		now := nanos()
		if d := p.done.Load(); d > acked {
			for j := acked; j < d; j++ {
				if j%p.stride == 0 {
					p.samp.add(now - p.tpub[j&mask])
				}
				if tr != nil {
					tr.ing[j-first].ack = now
				}
			}
			acked = d
		}
		if next < end && next-acked < p.tokens {
			if !drawn {
				rec(next, &r)
				r.Token = next + 1
				drawn = true
			}
			p.tries++
			if p.ring.TryPublish(r) {
				drawn = false
				p.tpub[next&mask] = now
				if tr != nil {
					tr.ing[next-first] = ingRec{due: now, pubStart: now, pubEnd: nanos()}
				}
				next++
			} else {
				p.retries++
			}
		}
	}
}

// open publishes n records on a fixed schedule of one every interval
// nanoseconds, timing each from its due time: a stalled generator or a
// full ring shows as latency, and as lateness of the generator.
func (p *producer) open(first uint64, n int, interval float64, tr *tracer, rec func(i uint64, r *ingress.Record)) {
	r := ingress.Record{Done: &p.done}
	next, acked, end := first, first, first+uint64(n)
	t0 := nanos()
	due := func(j uint64) int64 { return t0 + int64(float64(j-first)*interval) }
	drawn := false
	for acked < end {
		now := nanos()
		if d := p.done.Load(); d > acked {
			for j := acked; j < d; j++ {
				lat := now - due(j)
				if j%p.stride == 0 {
					p.samp.add(lat)
				}
				if lat > ackLimitUS*1e3 {
					p.late++
				}
				if tr != nil {
					tr.ing[j-first].ack = now
				}
			}
			acked = d
		}
		if next < end && due(next) <= now {
			if !drawn {
				rec(next, &r)
				r.Token = next + 1
				drawn = true
			}
			p.tries++
			if p.ring.TryPublish(r) {
				drawn = false
				if tr != nil {
					tr.ing[next-first] = ingRec{due: due(next), pubStart: now, pubEnd: nanos()}
				}
				next++
				if next == end {
					p.backlog = next - acked
				}
			} else {
				p.retries++
			}
		}
	}
}

func (p *producer) fold(tr *tracer) {
	if tr == nil {
		return
	}
	tr.sums["publish_attempts"] += float64(p.tries)
	tr.sums["publish_retries"] += float64(p.retries)
	tr.sums["backlog_end"] += float64(p.backlog)
	tr.foldIngress()
}

func (p *producer) stat(st *segStat) {
	st.samples, st.dropped = len(p.samp.ns), p.samp.dropped
	st.p50, st.p99 = p50p99US(p.samp.ns)
}

// ---- queue_ingress_sat ----

// queueIngress rebuilds its queue and packed pool for every segment:
// nothing dequeues, so a segment's nodes are never retired, and a fresh
// build (untimed) bounds memory.
type queueIngress struct {
	cfg  runCfg
	inst *queueInstance

	attempted, failed int
}

type queueInstance struct {
	rt    *proc.Runtime
	reg   *capsule.Registry
	bases []pmem.Addr
	q     *pqueue.General
	pool  *ingress.Pool
	tap   *tap
	setup *pmem.Port
}

func buildQueueIngress(cfg runCfg) env {
	w := &queueIngress{cfg: cfg}
	w.inst = w.instance()
	return w
}

func (w *queueIngress) instance() *queueInstance {
	n := w.cfg.size(queueIngSegOps)
	const segNodes = 4096
	nseg := uint32(n/segNodes) + 2
	const P = 2
	mem := fastMem(16*pmem.WordsPerLine + qnode.PackedWords(segNodes, nseg) + P*capsule.ProcWords + 1<<16)
	in := &queueInstance{rt: proc.NewRuntime(mem, P), tap: &tap{}}
	arena := qnode.NewArena(mem, 8)
	in.q = pqueue.NewGeneral(pqueue.Config{
		Mem: mem, Space: rcas.NewSpace(mem, P), Arena: arena, P: P, Durable: true, Opt: true,
	})
	in.setup = mem.NewPort()
	in.q.Init(in.setup, pqueue.DummyNode)
	in.pool = ingress.NewPool(1, ingressRing, ingressBatchMax, 1)
	in.reg = capsule.NewRegistry()
	in.bases = capsule.AllocProcAreas(mem, P)
	vals := make([]uint64, ingressBatchMax)
	enqueue := pqueue.BatchEnqueuer(in.q, qnode.NewPackedPool(mem, arena, segNodes, nseg, P))
	comb := ingress.RegisterCombiner(in.reg, "bench-combine-q", in.pool, 0,
		func(c *capsule.Ctx, batch []ingress.Record) {
			in.tap.span(c, batch, func() {
				for i := range batch {
					vals[i] = batch[i].A
				}
				enqueue(c, vals[:len(batch)])
			})
		})
	capsule.Install(in.rt.Proc(combinerPid).Mem(), in.bases[combinerPid], in.reg, comb)
	return in
}

func (w *queueIngress) segment(k int, tr *tracer) segStat {
	n := w.cfg.size(queueIngSegOps)
	var setupS float64
	if w.inst == nil {
		// Collect the previous segment's instance and hand its memory
		// back first, as the timed builds do: every segment then starts
		// from the same heap, and peak_rss_mb does not depend on which
		// free block the allocator happened to reuse.
		debug.FreeOSMemory()
		t0 := nanos()
		w.inst = w.instance()
		setupS = float64(nanos()-t0) / 1e9
	}
	in := w.inst
	w.inst = nil
	prod := newProducer(in.pool.Shard(0).Ring, queueTokens, n)
	if tr != nil {
		tr.ingress(0, n, n/8+64)
		in.tap.tracer.Store(tr)
	}
	vals := newRng(w.cfg.seed, 5+uint64(k))
	s0 := in.rt.TotalStats()
	m := beginTimed()
	in.rt.Go(combinerPid, func(p *proc.Proc) {
		capsule.NewMachine(p, in.reg, in.bases[combinerPid]).Run()
	})
	prod.closed(0, n, tr, func(i uint64, r *ingress.Record) {
		r.Op, r.A = ingress.OpEnqueue, vals.next()
	})
	wall, cpu, gc := m.end()
	in.pool.MarkDone(0)
	in.rt.Wait()

	st := segStat{ops: n, wallS: wall, cpuS: cpu, gc: gc, stats: in.rt.TotalStats().Sub(s0), traced: tr != nil, setupS: setupS}
	prod.stat(&st)
	prod.fold(tr)

	// Every acknowledged value is in the queue exactly once, in order.
	// The drained slice is the segment's largest allocation; the collector
	// stays off while it grows, so peak_rss_mb does not depend on where a
	// concurrent cycle happened to land.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := in.q.Drain(in.setup)
	if w.cfg.corrupt && len(got) > 1 {
		got = append(got[:1], got[2:]...)
	}
	failed := max(n-len(got), len(got)-n)
	want := newRng(w.cfg.seed, 5+uint64(k))
	for _, v := range got[:min(n, len(got))] {
		if v != want.next() {
			failed++
		}
	}
	w.attempted += n
	w.failed += failed
	return st
}

func (w *queueIngress) finish() (int, int) { return w.attempted, w.failed }

func (w *queueIngress) counts(out map[string]float64) {}

// ---- map_ingress_sat, map_ingress_paced ----

type mapIngress struct {
	cfg    runCfg
	paced  bool
	rate   int
	rt     *proc.Runtime
	reg    *capsule.Registry
	bases  []pmem.Addr
	m      *pmap.Map
	ba     *pmap.BatchApplier
	pool   *ingress.Pool
	tap    *tap
	setup  *pmem.Port
	prod   *producer
	ops    *rng
	shadow *mapShadow
	issued uint64

	running bool
	nsegs   int

	attempted, failed int
	miniFences        uint64
}

func buildMapIngressSat(cfg runCfg) env   { return buildMapIngress(cfg, false) }
func buildMapIngressPaced(cfg runCfg) env { return buildMapIngress(cfg, true) }

func (w *mapIngress) segOps() int {
	if w.paced {
		return w.cfg.size(w.rate * pacedSegSecs)
	}
	return w.cfg.size(mapIngSegOps)
}

func buildMapIngress(cfg runCfg, paced bool) env {
	w := &mapIngress{cfg: cfg, paced: paced, rate: pacedRate, tap: &tap{}}
	if cfg.rate > 0 {
		w.rate = cfg.rate
	}
	const P = 2
	mem := fastMem(pmap.BatchWords(mapBuckets, 1, P, 1, 0, mapBatchWindow) + P*capsule.ProcWords + mapKeys*4 + 1<<16)
	w.rt = proc.NewRuntime(mem, P)
	w.m = pmap.New(pmap.Config{Mem: mem, P: P, Buckets: mapBuckets, Shards: 1, Opt: true, Durable: true,
		BatchCombiners: 1, BatchWindow: mapBatchWindow})
	w.setup = mem.NewPort()
	w.m.Init(w.setup, nil)
	w.m.Bind(w.rt)
	w.ba = pmap.NewBatchApplier(w.m)
	w.pool = ingress.NewPool(1, ingressRing, ingressBatchMax, 1)
	w.reg = capsule.NewRegistry()
	w.m.Register(w.reg)
	w.bases = capsule.AllocProcAreas(mem, P)
	batchOps := make([]pmap.BatchOp, ingressBatchMax)
	comb := ingress.RegisterGroupCombiner(w.reg, "bench-combine-m", w.pool, 0,
		func(c *capsule.Ctx, batch []ingress.Record) (deferred bool) {
			w.tap.enter(c)
			w.tap.span(c, batch, func() {
				for i := range batch {
					batchOps[i] = pmap.BatchOp{Del: batch[i].Op == ingress.OpDelete, K: batch[i].A, V: batch[i].B}
				}
				if !w.ba.Apply(c, batchOps[:len(batch)]) {
					panic("bench: map batch rejected; the table is sized to never fill")
				}
				deferred = w.ba.Deferred(c.P().ID())
			})
			return deferred
		},
		func(c *capsule.Ctx) { w.ba.Close(c.P().ID()) })
	capsule.Install(w.rt.Proc(combinerPid).Mem(), w.bases[combinerPid], w.reg, comb)
	// Process 0 exists to preload the map through its inline Put path.
	capsule.InstallIdle(w.rt.Proc(0).Mem(), w.bases[0], w.reg, w.m.Routine())
	w.shadow = preloadMap(w.m, capsule.NewMachine(w.rt.Proc(0), w.reg, w.bases[0]))
	w.prod = newProducer(w.pool.Shard(0).Ring, mapTokens, w.segOps())
	w.ops = newRng(cfg.seed, 6)
	return w
}

// mapWrite draws the next write: two Puts to one Delete over the key space.
func mapWrite(r *rng, i uint64) (del bool, key uint64) {
	return i%3 == 1, uint64(r.intn(mapKeys) + 1)
}

func mapIngressBaseline(cfg runCfg) float64 {
	n := cfg.size(200000)
	mem := fastMem(2*mapBuckets + 1<<12)
	vm := pmap.NewVolatile(mem, mapBuckets)
	port := mem.NewPort()
	preloadVolatile(vm, port)
	ops := newRng(cfg.seed, 6)
	s0 := port.Stats
	for i := uint64(0); i < uint64(n); i++ {
		if del, k := mapWrite(ops, i); del {
			vm.Delete(port, k)
		} else {
			vm.Put(port, k, i)
		}
	}
	return memInstr(port.Stats.Sub(s0)) / float64(n)
}

func (w *mapIngress) segment(_ int, tr *tracer) segStat {
	n := w.segOps()
	if !w.running {
		w.running = true
		w.rt.Go(combinerPid, func(p *proc.Proc) {
			capsule.NewMachine(p, w.reg, w.bases[combinerPid]).Run()
		})
	}
	first := w.issued
	if tr != nil {
		tr.ingress(first, n, n+64)
	}
	w.tap.tracer.Store(tr)
	w.prod.samp.reset()
	rec := func(i uint64, r *ingress.Record) {
		del, key := mapWrite(w.ops, i)
		r.A = key
		if del {
			r.Op, r.B = ingress.OpDelete, 0
			w.shadow[key] = 0
		} else {
			r.Op, r.B = ingress.OpPut, i
			w.shadow[key] = i + 1
		}
	}
	w.nsegs++
	w.tap.seg.Store(int64(w.nsegs))
	m := beginTimed()
	if w.paced {
		w.prod.open(first, n, 1e9/float64(w.rate), tr, rec)
	} else {
		w.prod.closed(first, n, tr, rec)
	}
	wall, cpu, gc := m.end()
	w.issued += uint64(n)
	w.tap.tracer.Store(nil)

	st := segStat{ops: n, wallS: wall, cpuS: cpu, gc: gc, traced: tr != nil}
	w.prod.stat(&st)
	w.prod.fold(tr)
	w.attempted += n
	return st
}

// settledStats returns the combiner's Stats delta of every segment, in
// the order they ran. Only valid after finish: the last segment is
// closed by the combiner's final counters, which may be read only once
// it has stopped.
func (w *mapIngress) settledStats() []pmem.Stats {
	final := w.rt.Proc(combinerPid).Mem().Stats
	out := make([]pmem.Stats, w.nsegs)
	for i := range out {
		end := final
		if i+2 < len(w.tap.snaps) {
			end = w.tap.snaps[i+2]
		}
		out[i] = end.Sub(w.tap.snaps[i+1])
	}
	return out
}

func (w *mapIngress) finish() (int, int) {
	if w.running {
		w.pool.MarkDone(0)
		w.rt.Wait()
		w.running = false
	}
	w.miniFences = w.ba.MiniFences(combinerPid)
	dump := w.m.Dump(w.setup)
	if w.cfg.corrupt {
		flipOneKey(dump)
	}
	w.failed += w.shadow.equal(dump)
	return w.attempted, w.failed
}

func (w *mapIngress) counts(out map[string]float64) {
	out["pmap.mini_fences_per_kop"] = ratio(float64(w.miniFences)*1000, float64(w.issued))
	out["ingress.ack_late_share"] = ratio(float64(w.prod.late), float64(w.attempted))
}

package main

import (
	"delayfree/internal/capsule"
	"delayfree/internal/msq"
	"delayfree/internal/pmap"
	"delayfree/internal/pmem"
	"delayfree/internal/pqueue"
	"delayfree/internal/proc"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
)

// The two inline workloads: one client, on the benchmark's own
// goroutine, issues every operation through capsule.Machine.Invoke and
// knows it durable when Invoke returns. One client means every count is
// exact and repeats bit for bit with the seed.

// Timed ops are sampled with a seeded gap (mean 8 on the queue, 31 on
// the map): a 150 ns Get must not pay two clock reads per op, a fixed
// stride would always land on the same op type of a rotating mix, and
// every segment must still yield 10 000 samples for its p99.
const (
	queueSampleGap = 15
	mapSampleGap   = 61
)

// baselineSeed is the volatile baselines' initial queue length. The
// instruction count per op does not depend on it, so the baseline does
// not pay the full seeded queue's memory.
const baselineSeed = 1024

func fastMem(words uint64) *pmem.Memory {
	return pmem.New(pmem.Config{Words: words, Mode: pmem.Shared, FlushDelay: flushDelay, FenceDelay: fenceDelay})
}

// ---- queue_inline ----

const (
	queueSeedNodes = 200000
	queueSegOps    = 160000 // ~0.45 s at 0.37 Mops/s
)

var queueKinds = []string{"enq", "deq"}

type queueInline struct {
	cfg   runCfg
	port  *pmem.Port
	setup *pmem.Port
	q     *pqueue.Normalized
	mach  *capsule.Machine
	vals  *rng // enqueued payloads
	want  *rng // the same stream, replayed as dequeues catch up with it
	gaps  *rng
	deqs  uint64
	samp  *sampler

	attempted, failed int
}

func buildQueueInline(cfg runCfg) env {
	w := &queueInline{cfg: cfg}
	const spare = 8192
	mem := fastMem(uint64(queueSeedNodes+spare+8)*pmem.WordsPerLine + capsule.ProcWords + 1<<16)
	rt := proc.NewRuntime(mem, 1)
	arena := qnode.NewArena(mem, queueSeedNodes+spare)
	w.q = pqueue.NewNormalized(pqueue.Config{
		Mem: mem, Space: rcas.NewSpace(mem, 1), Arena: arena, P: 1, Durable: true, Opt: true,
	})
	reg := capsule.NewRegistry()
	w.q.Register(reg)
	bases := capsule.AllocProcAreas(mem, 1)
	w.setup = mem.NewPort()
	w.q.Init(w.setup, pqueue.DummyNode+queueSeedNodes)
	w.q.Seed(w.setup, pqueue.DummyNode+1, queueSeedNodes, func(i uint32) uint64 { return uint64(i) })
	w.port = rt.Proc(0).Mem()
	capsule.InstallIdle(w.port, bases[0], reg, w.q.EnqRoutine())
	w.mach = capsule.NewMachine(rt.Proc(0), reg, bases[0])
	w.vals, w.want = newRng(cfg.seed, 1), newRng(cfg.seed, 1)
	w.gaps = newRng(cfg.seed, 2)
	w.samp = newSampler(cfg.size(queueSegOps))
	return w
}

// queueBaseline counts the volatile Michael-Scott queue's memory
// instructions per op on the same stream: alternating pairs for the
// inline workload, enqueue-only for the ingress one.
func queueBaseline(cfg runCfg, pairs bool) float64 {
	n := cfg.size(20000)
	mem := fastMem(uint64(baselineSeed+n+64)*pmem.WordsPerLine + 1<<12)
	arena := qnode.NewArena(mem, uint32(baselineSeed+n+32))
	port := mem.NewPort()
	q := msq.New(mem, port, arena, 1)
	q.Seed(port, 2, baselineSeed, func(i uint32) uint64 { return uint64(i) })
	lo, hi := arena.Range(0, 1, baselineSeed+1)
	h := q.NewHandle(port, lo, hi)
	vals := newRng(cfg.seed, 1)
	s0 := port.Stats
	for i := 0; i < n; i++ {
		if pairs && i&1 == 1 {
			h.Dequeue()
		} else {
			h.Enqueue(vals.next())
		}
	}
	return memInstr(port.Stats.Sub(s0)) / float64(n)
}

func (w *queueInline) segment(_ int, tr *tracer) segStat {
	n := w.cfg.size(queueSegOps)
	var lane *[]opRec
	if tr != nil {
		lane = tr.lane(0, n)
	}
	w.samp.reset()
	enqR, enqE := w.q.EnqRoutine(), w.q.EnqEntry()
	deqR, deqE := w.q.DeqRoutine(), w.q.DeqEntry()
	failed := 0
	next := w.gaps.intn(queueSampleGap)
	s0 := w.port.Stats
	m := beginTimed()
	for i := 0; i < n; i++ {
		timed := i == next || lane != nil
		var t0 int64
		var st pmem.Stats
		if timed {
			if lane != nil {
				st = w.port.Stats
			}
			t0 = nanos()
		}
		if i&1 == 0 {
			w.mach.Invoke(enqR, enqE, w.vals.next())
		} else {
			r := w.mach.Invoke(deqR, deqE)
			// FIFO: the seeded values 0..seed-1 first, then the
			// enqueued payload stream in order.
			want := w.deqs
			if w.deqs >= queueSeedNodes {
				want = w.want.next()
			}
			w.deqs++
			if len(r) != 2 || r[0] != 1 || r[1] != want {
				failed++
			}
		}
		if timed {
			t1 := nanos()
			if lane != nil {
				d := w.port.Stats.Sub(st)
				*lane = append(*lane, opRec{start: t0, end: t1, kind: uint8(i & 1), steps: uint32(d.Steps),
					flushes: uint32(d.Flushes), fences: uint32(d.Fences), cases: uint32(d.CASes)})
			}
			if i == next {
				w.samp.add(t1 - t0)
				next += 1 + w.gaps.intn(queueSampleGap)
			}
		}
	}
	wall, cpu, gc := m.end()
	st := segStat{ops: n, wallS: wall, cpuS: cpu, gc: gc, stats: w.port.Stats.Sub(s0),
		samples: len(w.samp.ns), dropped: w.samp.dropped, traced: tr != nil}
	st.p50, st.p99 = p50p99US(w.samp.ns)
	w.attempted += n
	w.failed += failed
	if tr != nil {
		tr.foldOps("pqueue.", queueKinds)
	}
	return st
}

func (w *queueInline) finish() (int, int) {
	// Enqueues and dequeues alternate, so the queue is back at its
	// seeded length.
	n := w.q.Len(w.setup)
	if w.cfg.corrupt {
		n--
	}
	if n != queueSeedNodes {
		w.failed += max(n-queueSeedNodes, queueSeedNodes-n)
	}
	return w.attempted, w.failed
}

func (w *queueInline) counts(out map[string]float64) {}

// ---- map_inline_r90 ----

const (
	mapKeys    = 2048
	mapBuckets = 2 * mapKeys
	mapReadPct = 90
	mapSegOps  = 1200000 // ~0.4 s at 3 Mops/s
)

const (
	mapGet = iota
	mapPut
	mapDelete
	mapCas
)

var mapKinds = []string{"get", "put", "delete", "cas"}

// mapShadow is the Go model the map is verified against: value+1 per
// key, 0 for absent — an array, so keeping it costs the timed loop a
// nanosecond, not a Go-map operation.
type mapShadow [mapKeys + 1]uint64

func (s *mapShadow) equal(dump map[uint64]uint64) (mismatches int) {
	seen := 0
	for k := uint64(1); k <= mapKeys; k++ {
		v, ok := dump[k]
		if ok {
			seen++
		}
		if ok != (s[k] != 0) || (ok && v != s[k]-1) {
			mismatches++
		}
	}
	return mismatches + len(dump) - seen // keys outside the key space
}

// preloadMap fills the map with keys 1..mapKeys (value = key) through
// its own Put path, in key order, and returns the matching shadow. The
// map's Init would take the same contents as a Go map, but it places
// colliding keys in Go's randomised iteration order, and then probe
// lengths — reads per op — differ from run to run with one seed.
func preloadMap(m *pmap.Map, mach *capsule.Machine) *mapShadow {
	var s mapShadow
	for k := uint64(1); k <= mapKeys; k++ {
		if r := mach.Invoke(m.Routine(), m.PutEntry(), k, k); r[0] != 1 {
			panic("bench: preload Put rejected; the table is sized to never fill")
		}
		s[k] = k + 1
	}
	return &s
}

// preloadVolatile does the same for the unprotected baseline map.
func preloadVolatile(vm *pmap.Volatile, port *pmem.Port) *mapShadow {
	var s mapShadow
	for k := uint64(1); k <= mapKeys; k++ {
		vm.Put(port, k, k)
		s[k] = k + 1
	}
	return &s
}

type mapInline struct {
	cfg    runCfg
	port   *pmem.Port
	setup  *pmem.Port
	m      *pmap.Map
	mach   *capsule.Machine
	ops    *rng
	gaps   *rng
	writes uint64
	shadow *mapShadow
	samp   *sampler

	attempted, failed int
}

func buildMapInline(cfg runCfg) env {
	w := &mapInline{cfg: cfg}
	mem := fastMem(pmap.Words(mapBuckets, 1, 1) + capsule.ProcWords + mapKeys*4 + 1<<16)
	rt := proc.NewRuntime(mem, 1)
	w.m = pmap.New(pmap.Config{Mem: mem, P: 1, Buckets: mapBuckets, Shards: 1, Opt: true, Durable: true})
	w.setup = mem.NewPort()
	w.m.Init(w.setup, nil)
	w.m.Bind(rt)
	reg := capsule.NewRegistry()
	w.m.Register(reg)
	bases := capsule.AllocProcAreas(mem, 1)
	w.port = rt.Proc(0).Mem()
	capsule.InstallIdle(w.port, bases[0], reg, w.m.Routine())
	w.mach = capsule.NewMachine(rt.Proc(0), reg, bases[0])
	w.shadow = preloadMap(w.m, w.mach)
	w.ops = newRng(cfg.seed, 3)
	w.gaps = newRng(cfg.seed, 4)
	w.samp = newSampler(cfg.size(mapSegOps) / 8)
	return w
}

// mapOp draws the next operation of the r90 mix: 90 % Get, the rest
// rotating Put / Delete / Cas. Cas expects the shadow's current value,
// so it succeeds whenever the key is present.
func mapOp(r *rng, writes *uint64) (kind int, key uint64) {
	key = uint64(r.intn(mapKeys) + 1)
	if r.intn(100) < mapReadPct {
		return mapGet, key
	}
	kind = mapPut + int(*writes%3)
	*writes++
	return kind, key
}

// mapInlineBaseline runs the same mix on the unprotected open-addressing
// map and counts its memory instructions per op.
func mapInlineBaseline(cfg runCfg) float64 {
	n := cfg.size(200000)
	mem := fastMem(2*mapBuckets + 1<<12)
	vm := pmap.NewVolatile(mem, mapBuckets)
	port := mem.NewPort()
	shadow := preloadVolatile(vm, port)
	ops := newRng(cfg.seed, 3)
	var writes uint64
	s0 := port.Stats
	for i := 0; i < n; i++ {
		kind, k := mapOp(ops, &writes)
		switch kind {
		case mapGet:
			vm.Get(port, k)
		case mapPut:
			vm.Put(port, k, uint64(i))
			shadow[k] = uint64(i) + 1
		case mapDelete:
			vm.Delete(port, k)
			shadow[k] = 0
		default:
			// As in the workload: Cas(key, 0, 1) on an absent key, which fails.
			if sh := shadow[k]; sh == 0 {
				vm.Cas(port, k, 0, 1)
			} else if vm.Cas(port, k, sh-1, sh) {
				shadow[k] = sh + 1
			}
		}
	}
	return memInstr(port.Stats.Sub(s0)) / float64(n)
}

func (w *mapInline) segment(_ int, tr *tracer) segStat {
	n := w.cfg.size(mapSegOps)
	var lane *[]opRec
	if tr != nil {
		lane = tr.lane(0, n)
	}
	w.samp.reset()
	rid := w.m.Routine()
	getE, putE, delE, casE := w.m.GetEntry(), w.m.PutEntry(), w.m.DelEntry(), w.m.CasEntry()
	failed := 0
	next := w.gaps.intn(mapSampleGap)
	s0 := w.port.Stats
	m := beginTimed()
	for i := 0; i < n; i++ {
		kind, key := mapOp(w.ops, &w.writes)
		timed := i == next || lane != nil
		var t0 int64
		var st pmem.Stats
		if timed {
			if lane != nil {
				st = w.port.Stats
			}
			t0 = nanos()
		}
		sh := w.shadow[key]
		switch kind {
		case mapGet:
			r := w.mach.Invoke(rid, getE, key)
			if (r[0] != 0) != (sh != 0) || (sh != 0 && r[1] != sh-1) {
				failed++
			}
		case mapPut:
			v := w.writes
			if r := w.mach.Invoke(rid, putE, key, v); r[0] != 1 {
				failed++
			}
			w.shadow[key] = v + 1
		case mapDelete:
			w.mach.Invoke(rid, delE, key)
			w.shadow[key] = 0
		default:
			if sh == 0 {
				// Absent key: Cas must report failure.
				if r := w.mach.Invoke(rid, casE, key, 0, 1); r[0] != 0 {
					failed++
				}
			} else {
				if r := w.mach.Invoke(rid, casE, key, sh-1, sh); r[0] != 1 {
					failed++
				}
				w.shadow[key] = sh + 1
			}
		}
		if timed {
			t1 := nanos()
			if lane != nil {
				d := w.port.Stats.Sub(st)
				*lane = append(*lane, opRec{start: t0, end: t1, kind: uint8(kind), steps: uint32(d.Steps),
					flushes: uint32(d.Flushes), fences: uint32(d.Fences), cases: uint32(d.CASes)})
			}
			if i == next {
				w.samp.add(t1 - t0)
				next += 1 + w.gaps.intn(mapSampleGap)
			}
		}
	}
	wall, cpu, gc := m.end()
	st := segStat{ops: n, wallS: wall, cpuS: cpu, gc: gc, stats: w.port.Stats.Sub(s0),
		samples: len(w.samp.ns), dropped: w.samp.dropped, traced: tr != nil}
	st.p50, st.p99 = p50p99US(w.samp.ns)
	w.attempted += n
	w.failed += failed
	if tr != nil {
		tr.foldOps("pmap.", mapKinds)
	}
	return st
}

func (w *mapInline) finish() (int, int) {
	dump := w.m.Dump(w.setup)
	if w.cfg.corrupt {
		flipOneKey(dump)
	}
	w.failed += w.shadow.equal(dump)
	return w.attempted, w.failed
}

// flipOneKey damages a Dump the way a lost write would: the smallest
// present key changes value (tests feed this to the verifier).
func flipOneKey(dump map[uint64]uint64) {
	for k := uint64(1); k <= mapKeys; k++ {
		if v, ok := dump[k]; ok {
			dump[k] = v ^ 1
			return
		}
	}
	dump[1] = 0
}

func (w *mapInline) counts(out map[string]float64) {}

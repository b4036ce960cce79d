package ingress_test

import (
	"sync/atomic"
	"testing"

	"delayfree/internal/capsule"
	"delayfree/internal/ingress"
	"delayfree/internal/pmap"
	"delayfree/internal/pmem"
	"delayfree/internal/pqueue"
	"delayfree/internal/proc"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
)

// Steady-state Go allocation pins for the ingress hot path. The
// batching layer's throughput argument assumes the per-operation cost
// is simulated persistence (flushes, fences), not host-side garbage:
// ring publish/drain reuse fixed cells, the combiner drains into its
// shard's preallocated buffer, and the batch appliers reuse per-pid
// chains and the packed pool's bump state. These tests pin all of that
// at exactly 0 Go allocations per operation after warm-up; a
// regression here (a Record escaping to the heap, a per-batch slice
// rebuilt per run) silently caps the Mops/s numbers the BENCH_*
// trajectories track.

// TestRingPublishZeroAlloc pins the producer and consumer sides of the
// ring: TryPublish, blocking Publish, and Drain must not allocate.
func TestRingPublishZeroAlloc(t *testing.T) {
	r := ingress.NewRing(64)
	buf := make([]ingress.Record, 8)
	done := new(atomic.Uint64) // one completion slot, reused every run
	rec := ingress.Record{Op: ingress.OpEnqueue, Pid: 0, A: 42, Token: 7, Done: done}
	fail := false
	avg := testing.AllocsPerRun(200, func() {
		if !r.TryPublish(rec) {
			fail = true
			return
		}
		r.Publish(rec, nil)
		if r.Drain(buf) != 2 {
			fail = true
		}
	})
	if fail {
		t.Fatal("ring rejected a publish or drained a short batch on an empty ring")
	}
	if avg != 0 {
		t.Fatalf("ring publish+drain allocates %v objects/run, want 0", avg)
	}
}

// TestCombinerDrainApplyZeroAlloc pins the whole combiner hot path: a
// full batch published into the ring, drained by the registered
// combiner routine, and applied as one packed-chain batch enqueue —
// zero Go allocations per batch once the per-pid chain buffer and the
// Port's pending-epoch storage are warm. Runs on unchecked memory: the
// checked image's crash-replay write logs allocate by design and are
// never part of the benchmark configuration this pin protects.
func TestCombinerDrainApplyZeroAlloc(t *testing.T) {
	const (
		arenaCap = 16
		segNodes = 64
		nseg     = 16 // 1024 packed nodes: enough for every measured run
		batch    = 8
	)
	words := uint64(arenaCap+8)*pmem.WordsPerLine +
		qnode.PackedWords(segNodes, nseg) + capsule.ProcWords + 1<<13
	mem := pmem.New(pmem.Config{Words: words, Mode: pmem.Private})
	rt := proc.NewRuntime(mem, 1)
	arena := qnode.NewArena(mem, arenaCap)
	q := pqueue.NewGeneral(pqueue.Config{
		Mem:     mem,
		Space:   rcas.NewSpace(mem, 1),
		Arena:   arena,
		P:       1,
		Durable: true,
		Opt:     true,
	})
	q.Init(rt.Proc(0).Mem(), pqueue.DummyNode)
	enqueue := pqueue.BatchEnqueuer(q, qnode.NewPackedPool(mem, arena, segNodes, nseg, 1))

	pool := ingress.NewPool(1, 32, batch, 1)
	pool.MarkDone(0) // combiner finishes as soon as its ring drains empty
	reg := capsule.NewRegistry()
	bases := capsule.AllocProcAreas(mem, 1)
	vals := make([]uint64, batch)
	comb := ingress.RegisterCombiner(reg, "alloc-comb", pool, 0,
		func(c *capsule.Ctx, b []ingress.Record) {
			for i := range b {
				vals[i] = b[i].A
			}
			enqueue(c, vals[:len(b)])
		})
	capsule.Install(rt.Proc(0).Mem(), bases[0], reg, comb)

	recs := make([]ingress.Record, batch)
	for i := range recs {
		recs[i] = ingress.Record{Op: ingress.OpEnqueue, A: 0xBEE0 + uint64(i)}
	}
	ring := pool.Shard(0).Ring

	var avg float64
	rt.RunToCompletion(func(int) proc.Program {
		return func(p *proc.Proc) {
			m := capsule.NewMachine(p, reg, bases[0])
			runOnce := func() {
				for i := range recs {
					ring.Publish(recs[i], nil)
				}
				// One Invoke = drain the batch, apply it as a packed
				// chain, hit the ring-empty exit. AllocsPerRun's own
				// warm-up call sizes the chain buffer and epoch storage.
				m.Invoke(comb, 0)
			}
			runOnce() // first call grows h.chain and the pool's batch ranges
			avg = testing.AllocsPerRun(40, runOnce)
		}
	})
	if avg != 0 {
		t.Fatalf("combiner drain+apply allocates %v objects/batch, want 0", avg)
	}
}

// TestGroupSpanCloseZeroAlloc pins the low-load span of the group tier:
// a few records drained after the linger, applied through the map's
// group-commit applier, the window closed inside the same span (nothing
// else is waiting) and the tokens stored — zero Go allocations once the
// applier's location cache and the batcher's window lists are warm. At
// low load this whole path runs per span, tens of thousands of times a
// second. P is above 8 on purpose (see wcas.TestCloseWindowZeroAlloc).
func TestGroupSpanCloseZeroAlloc(t *testing.T) {
	const (
		P        = 16
		buckets  = 64
		batchMax = 8
		perSpan  = 3
		combiner = P - 1
	)
	mem := pmem.New(pmem.Config{Words: pmap.BatchWords(buckets, 1, P, 1, 0, 0) + P*capsule.ProcWords + 1<<13, Mode: pmem.Shared})
	rt := proc.NewRuntime(mem, P)
	m := pmap.New(pmap.Config{Mem: mem, P: P, Buckets: buckets, Shards: 1, Opt: true, Durable: true, BatchCombiners: 1})
	m.Init(mem.NewPort(), nil)
	m.Bind(rt)
	apply, closeWindow := pmap.NewBatchApplier(m).GroupApply(batchMax)

	pool := ingress.NewPool(1, 32, batchMax, 1)
	pool.MarkDone(0) // each Invoke runs one span, then finishes on the empty ring
	reg := capsule.NewRegistry()
	bases := capsule.AllocProcAreas(mem, P)
	closes := 0
	comb := ingress.RegisterGroupCombiner(reg, "alloc-comb-m", pool, 0, apply,
		func(c *capsule.Ctx) { closes++; closeWindow(c) })
	capsule.Install(rt.Proc(combiner).Mem(), bases[combiner], reg, comb)

	ring := pool.Shard(0).Ring
	done := new(atomic.Uint64)
	var token uint64
	var avg float64
	spans := 0
	rt.Go(combiner, func(p *proc.Proc) {
		mach := capsule.NewMachine(p, reg, bases[combiner])
		runOnce := func() {
			for i := 0; i < perSpan; i++ {
				token++
				rec := ingress.Record{Op: ingress.OpPut, A: 1 + token%8, B: token, Token: token, Done: done}
				if token%4 == 0 {
					rec.Op, rec.B = ingress.OpDelete, 0
				}
				ring.Publish(rec, nil)
			}
			mach.Invoke(comb, 0)
			spans++
		}
		for i := 0; i < 8; i++ { // claim every key's bucket, grow the window lists
			runOnce()
		}
		avg = testing.AllocsPerRun(40, runOnce)
	})
	rt.Wait()
	if done.Load() != token {
		t.Fatalf("last acknowledged token %d, want %d", done.Load(), token)
	}
	if closes != spans {
		t.Fatalf("%d closes over %d low-load spans, want one each", closes, spans)
	}
	if avg != 0 {
		t.Fatalf("drain+apply+close+ack span allocates %v objects/span, want 0", avg)
	}
}

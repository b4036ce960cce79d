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
	"delayfree/internal/pstack"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
)

// Per-step crash sweep through a combiner's batch span: pre-publish one
// full batch from the host, run a single combiner process, and crash it
// after every possible instrumented step n in 1..N (N measured on a
// clean run, so the sweep necessarily covers the final fence and every
// step before it). After each crash the durable state must show every
// batched operation either durably applied or durably absent — never
// torn, never duplicated — and the applied count must be monotone in
// the crash point (durability is cumulative: a fenced line never
// un-persists). The queue and stack batches commit through a single
// link CAS, so their sweep additionally pins all-or-nothing: the
// recovered structure is empty or holds the exact batch in order. The
// map batch has per-operation commit points, so any subset of the
// batch's disjoint keys may survive, each with exactly its batch value.
//
// Both memory models run: Private (independent crashes) and Shared
// (the paper's "all processors fail together" model).

const sweepBatch = 5

func sweepVal(i int) uint64 { return 0xABC00 + uint64(i) }
func sweepKey(i int) uint64 { return 0x51 + uint64(i) }

// sweepRig is one fresh single-combiner setup with a pre-published
// batch. run executes the combiner to completion or first crash;
// applied inspects the durable state, fails the test on any torn or
// alien value, and returns how many of the batch's operations survived.
type sweepRig struct {
	rt      *proc.Runtime
	run     func()
	applied func(t *testing.T) int
	// subset marks rigs whose batch rides a deferred group-commit
	// window: between the install fence and the close fence several
	// swings are unfenced at once, and a crash keeps an independent
	// prefix of each affected line's writes — so the applied count is
	// NOT monotone in the crash step. The sweep then checks, per step,
	// that the survivors are a valid subset and that every operation
	// whose completion token is visible is among them: the combiner
	// closes the window inside the span that applied the batch (nothing
	// else is waiting), so the crash points run from Drain through apply,
	// the close fence and the token stores, and a token stored ahead of
	// the fence would show at some step as acknowledged-but-absent. The
	// step-exact cumulative-durability floor is pinned by the wcas
	// milestone sweep (wcas.TestBatchCommitCrashSweep).
	subset bool
}

func (r *sweepRig) crashed() bool { return r.rt.Proc(0).Restarts() > 0 }

// combinerRig wires the shared skeleton over the one combiner loop: a
// pool with one shard, the batch pre-published from the host (host
// atomics, zero instrumented steps), one combiner proc. apply is the
// family's batch applier; a group-commit applier's completions wait for
// its window to close through closeWin (here inside the one span: the
// ring is empty after the single batch, so the combiner closes at once).
func combinerRig(mem *pmem.Memory, rt *proc.Runtime, apply ingress.GroupApply, closeWin func(c *capsule.Ctx), recs []ingress.Record) func() {
	pool := ingress.NewPool(1, 16, sweepBatch, 1)
	for _, rec := range recs {
		pool.Shard(0).Ring.Publish(rec, nil)
	}
	pool.MarkDone(0)
	reg := capsule.NewRegistry()
	bases := capsule.AllocProcAreas(mem, 1)
	comb := ingress.RegisterGroupCombiner(reg, "sweep-comb", pool, 0, apply, closeWin)
	capsule.Install(rt.Proc(0).Mem(), bases[0], reg, comb)
	return func() {
		rt.RunToCompletion(func(int) proc.Program {
			return func(p *proc.Proc) {
				if p.PeekCrashed() {
					return // freeze at first crash: the sweep inspects post-crash state
				}
				capsule.NewMachine(p, reg, bases[0]).Run()
			}
		})
		rt.Proc(0).Disarm()
	}
}

// chainApplied checks the all-or-nothing contract shared by the queue
// and stack sweeps: residue is empty or exactly want, in order.
func chainApplied(t *testing.T, residue, want []uint64) int {
	t.Helper()
	if len(residue) == 0 {
		return 0
	}
	if len(residue) != len(want) {
		t.Fatalf("torn batch: %d of %d values survived (%#x)", len(residue), len(want), residue)
	}
	for i, v := range residue {
		if v != want[i] {
			t.Fatalf("residue[%d] = %#x, want %#x (full residue %#x)", i, v, want[i], residue)
		}
	}
	return len(want)
}

// Tiny packed-pool geometry so one sweepBatch-node batch spans a
// segment boundary: the sweep then also covers mid-batch segment
// switches and the seal-at-commit path.
const (
	sweepSegNodes = 4
	sweepNseg     = 4
)

func queueRig(mode pmem.Mode) *sweepRig {
	const arenaCap = 64
	words := uint64(arenaCap+8)*pmem.WordsPerLine +
		qnode.PackedWords(sweepSegNodes, sweepNseg) + capsule.ProcWords + 1<<13
	mem := pmem.New(pmem.Config{Words: words, Mode: mode, Checked: true, Seed: 7})
	rt := proc.NewRuntime(mem, 1)
	rt.SystemCrashMode = mode == pmem.Shared
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
	enqueue := pqueue.BatchEnqueuer(q, qnode.NewPackedPool(mem, arena, sweepSegNodes, sweepNseg, 1))
	recs := make([]ingress.Record, sweepBatch)
	for i := range recs {
		recs[i] = ingress.Record{Op: ingress.OpEnqueue, A: sweepVal(i)}
	}
	run := combinerRig(mem, rt, ingress.ChainApplier(sweepBatch, enqueue), nil, recs)
	return &sweepRig{rt: rt, run: run, applied: func(t *testing.T) int {
		want := make([]uint64, sweepBatch)
		for i := range want {
			want[i] = sweepVal(i) // FIFO drain: publish order
		}
		return chainApplied(t, q.Drain(rt.Proc(0).Mem()), want)
	}}
}

func stackRig(mode pmem.Mode) *sweepRig {
	const arenaCap = 64
	words := uint64(arenaCap+8)*pmem.WordsPerLine +
		qnode.PackedWords(sweepSegNodes, sweepNseg) + capsule.ProcWords + 1<<13
	mem := pmem.New(pmem.Config{Words: words, Mode: mode, Checked: true, Seed: 7})
	rt := proc.NewRuntime(mem, 1)
	rt.SystemCrashMode = mode == pmem.Shared
	arena := qnode.NewArena(mem, arenaCap)
	s := pstack.New(pstack.Config{
		Mem:     mem,
		Space:   rcas.NewSpace(mem, 1),
		Arena:   arena,
		P:       1,
		Durable: true,
		Opt:     true,
	})
	s.Init(rt.Proc(0).Mem(), 1)
	push := pstack.BatchPusher(s, qnode.NewPackedPool(mem, arena, sweepSegNodes, sweepNseg, 1))
	recs := make([]ingress.Record, sweepBatch)
	for i := range recs {
		recs[i] = ingress.Record{Op: ingress.OpPush, A: sweepVal(i)}
	}
	run := combinerRig(mem, rt, ingress.ChainApplier(sweepBatch, push), nil, recs)
	return &sweepRig{rt: rt, run: run, applied: func(t *testing.T) int {
		want := make([]uint64, sweepBatch)
		for i := range want {
			want[i] = sweepVal(sweepBatch - 1 - i) // LIFO drain: top (last pushed) first
		}
		return chainApplied(t, s.Drain(rt.Proc(0).Mem()), want)
	}}
}

func mapRig(mode pmem.Mode) *sweepRig {
	const buckets = 16
	// Window larger than the batch: apply never auto-closes, so the sweep
	// crosses the fully deferred region (installs fenced, swings
	// unfenced) before the combiner's own close later in the same span.
	const window = 8
	words := pmap.BatchWords(buckets, 1, 1, 1, 0, window) + capsule.ProcWords + 1<<13
	mem := pmem.New(pmem.Config{Words: words, Mode: mode, Checked: true, Seed: 7})
	rt := proc.NewRuntime(mem, 1)
	rt.SystemCrashMode = mode == pmem.Shared
	m := pmap.New(pmap.Config{Mem: mem, P: 1, Buckets: buckets, Shards: 1, Opt: true, Durable: true,
		BatchCombiners: 1, BatchWindow: window})
	setup := mem.NewPort()
	m.Init(setup, nil)
	m.Bind(rt)
	apply, closeWindow := pmap.NewBatchApplier(m).GroupApply(sweepBatch)
	recs := make([]ingress.Record, sweepBatch)
	done := make([]atomic.Uint64, sweepBatch)
	for i := range recs {
		recs[i] = ingress.Record{Op: ingress.OpPut, A: sweepKey(i), B: sweepVal(i), Token: uint64(i + 1), Done: &done[i]}
	}
	rig := &sweepRig{rt: rt, subset: true}
	rig.run = combinerRig(mem, rt, apply, closeWindow, recs)
	rig.applied = func(t *testing.T) int {
		t.Helper()
		if rig.crashed() {
			m.Recover(setup) // the real driver recovers wcas pools before any post-crash read
		}
		dump := m.Dump(setup)
		for k, v := range dump {
			found := false
			for i := 0; i < sweepBatch; i++ {
				if sweepKey(i) == k {
					found = true
					if v != sweepVal(i) {
						t.Fatalf("key %#x holds torn value %#x, want %#x", k, v, sweepVal(i))
					}
				}
			}
			if !found {
				t.Fatalf("alien key %#x = %#x in recovered map", k, v)
			}
		}
		for i := range done {
			if _, ok := dump[sweepKey(i)]; done[i].Load() != 0 && !ok {
				t.Fatalf("key %#x acknowledged (token %d visible) but absent from the recovered map: acked before durable",
					sweepKey(i), done[i].Load())
			}
		}
		if !rig.crashed() && done[sweepBatch-1].Load() != sweepBatch {
			t.Fatalf("run finished with the batch unacknowledged (last token %d)", done[sweepBatch-1].Load())
		}
		return len(dump)
	}
	return rig
}

func runCrashSweep(t *testing.T, mk func(pmem.Mode) *sweepRig) {
	for _, mode := range []pmem.Mode{pmem.Private, pmem.Shared} {
		name := "private"
		if mode == pmem.Shared {
			name = "shared"
		}
		t.Run(name, func(t *testing.T) {
			// Clean run: measure the span's step count and pin the
			// no-crash outcome (the whole batch applies exactly).
			rig := mk(mode)
			before := rig.rt.TotalStats().Steps
			rig.run()
			steps := int64(rig.rt.TotalStats().Steps - before)
			if rig.crashed() {
				t.Fatal("clean run crashed with nothing armed")
			}
			if got := rig.applied(t); got != sweepBatch {
				t.Fatalf("clean run applied %d of %d operations", got, sweepBatch)
			}
			stride := int64(1)
			if testing.Short() {
				stride = 7
			}
			prev := 0
			for n := int64(1); n <= steps; n++ {
				// Always cover the last few steps — that is where the
				// final fence (the batch's durability point) lives.
				if n%stride != 0 && n < steps-8 {
					continue
				}
				rig := mk(mode)
				rig.rt.Proc(0).ArmCrashAfter(n)
				rig.run()
				got := rig.applied(t)
				if !rig.crashed() && got != sweepBatch {
					t.Fatalf("crash armed at step %d/%d never fired yet only %d ops applied", n, steps, got)
				}
				if got < prev && !rig.subset {
					t.Fatalf("durable ops went backwards at crash step %d/%d: %d after %d (a fenced line un-persisted)",
						n, steps, got, prev)
				}
				prev = got
			}
			if prev != sweepBatch {
				t.Fatalf("crash at the final step (past the last fence) left %d of %d ops durable", prev, sweepBatch)
			}
			if rig.subset {
				t.Logf("%s: swept %d crash points, per-step subsets valid, no token ahead of its swing's durability, complete after the close fence", name, steps)
			} else {
				t.Logf("%s: swept %d crash points, applied-count monotone 0..%d", name, steps, sweepBatch)
			}
		})
	}
}

func TestCombinerCrashSweepQueue(t *testing.T) { runCrashSweep(t, queueRig) }
func TestCombinerCrashSweepStack(t *testing.T) { runCrashSweep(t, stackRig) }
func TestCombinerCrashSweepMap(t *testing.T)   { runCrashSweep(t, mapRig) }

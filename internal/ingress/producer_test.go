package ingress

import (
	"runtime"
	"sync/atomic"
	"testing"

	"delayfree/internal/capsule"
	"delayfree/internal/history"
	"delayfree/internal/pmem"
	"delayfree/internal/proc"
)

// The producer's window abandon rule, crash point by crash point: one
// producer and one combiner in the private model, the producer crashed
// once after k instrumented steps for every k up to the step count of a
// clean run — every step of both claimed windows' pc0 claim and pc1
// publish/wait span, and of the final pc0 that finishes.
//
// The two processes run in lockstep so k lands at the same protocol
// point on every run: the combiner's applier waits until the producer
// has taken a step since publishing the batch, and each producer step
// waits until the combiner has acknowledged everything released so far.
// An attempt thus costs exactly one wait step, whatever the host
// scheduling. The combiner never crashes, so its sink, a host slice in
// apply order, is the drained queue.

const abandonAttempts = 2 * stressWindow

type abandonRun struct {
	steps             uint64 // producer instrumented steps, crash replays included
	restarts          uint64
	idx, ret, aband   uint64
	returned, invoked map[uint64]bool // attempt values, per the history
	sink              []uint64
}

func runAbandon(crashAfter int64) abandonRun {
	mem := pmem.New(pmem.Config{Words: 1 << 14, Mode: pmem.Private, Checked: true, Seed: 1})
	rt := proc.NewRuntime(mem, 2)
	pool := NewPool(1, stressRingCap, StressBatchMax, 1)
	ring := pool.Shard(0).Ring
	rec := history.NewRecorder(1, 0)
	reg := capsule.NewRegistry()
	var run abandonRun
	var released, applied, acked atomic.Uint64
	prod := registerProducer(reg, "prod", pool, 0, abandonAttempts, nil, func(k uint64) Attempt {
		return Attempt{Rec: Record{Op: OpEnqueue, A: k}, HOp: history.OpEnq}
	}, rec)
	comb := RegisterCombiner(reg, "comb", pool, 0, func(c *capsule.Ctx, batch []Record) {
		for released.Load() < applied.Load()+uint64(len(batch)) {
			runtime.Gosched()
		}
		for _, r := range batch {
			run.sink = append(run.sink, r.A)
		}
		applied.Add(uint64(len(batch)))
	})
	bases := capsule.AllocProcAreas(mem, 2)
	capsule.Install(rt.Proc(0).Mem(), bases[0], reg, prod)
	capsule.Install(rt.Proc(1).Mem(), bases[1], reg, comb)

	pport, cport := rt.Proc(0).Mem(), rt.Proc(1).Mem()
	phook, chook := pport.Hook, cport.Hook
	pport.Hook = func() {
		run.steps++
		released.Store(ring.tail.Load())
		phook()
		for acked.Load() < released.Load() {
			runtime.Gosched()
		}
	}
	// Completion tokens are stored after apply returns and before the
	// combiner's next step, its closing boundary.
	cport.Hook = func() {
		acked.Store(applied.Load())
		chook()
	}
	if crashAfter > 0 {
		rt.Proc(0).ArmCrashAfter(crashAfter)
	}
	rt.RunToCompletion(func(i int) proc.Program {
		return func(p *proc.Proc) {
			capsule.NewMachine(p, reg, bases[i]).Run()
			if i == 0 {
				pool.MarkDone(0)
			}
		}
	})
	rt.Proc(0).Disarm()
	pport.Hook = phook // stop counting: LoadState reads through the port too

	run.restarts = rt.Proc(0).Restarts()
	_, _, locals := capsule.NewMachine(rt.Proc(0), reg, bases[0]).LoadState()
	run.idx, run.ret, run.aband = locals[slotIdx], locals[slotRet], locals[slotAband]
	run.returned, run.invoked = map[uint64]bool{}, map[uint64]bool{}
	for _, op := range rec.History().Ops {
		run.invoked[op.Arg] = true
		if op.Returned {
			run.returned[op.Arg] = true
		}
	}
	return run
}

func TestProducerWindowAbandon(t *testing.T) {
	clean := runAbandon(0)
	if clean.restarts != 0 || clean.aband != 0 || clean.ret != abandonAttempts {
		t.Fatalf("clean run: restarts %d, returned %d, abandoned %d; want 0, %d, 0",
			clean.restarts, clean.ret, clean.aband, abandonAttempts)
	}
	if again := runAbandon(0); again.steps != clean.steps {
		t.Fatalf("producer steps not deterministic: %d then %d", clean.steps, again.steps)
	}
	abandoned := 0
	for k := int64(1); k <= int64(clean.steps); k++ {
		r := runAbandon(k)
		if r.restarts != 1 {
			t.Fatalf("k=%d: %d restarts, want 1", k, r.restarts)
		}
		if r.idx < abandonAttempts || r.ret+r.aband != r.idx {
			t.Fatalf("k=%d: attempted %d, returned %d + abandoned %d (want every attempt of >= %d accounted for)",
				k, r.idx, r.ret, r.aband, abandonAttempts)
		}
		// A window's returns persist at its closing boundary, so a
		// crash can undercount them (the window is then abandoned
		// whole), never overcount.
		if uint64(len(r.returned)) < r.ret {
			t.Fatalf("k=%d: history returns %d ops, the persisted count says %d", k, len(r.returned), r.ret)
		}
		seen := map[uint64]bool{}
		for _, v := range r.sink {
			if seen[v] {
				t.Fatalf("k=%d: value %d applied twice (sink %v)", k, v, r.sink)
			}
			if !r.invoked[v] {
				t.Fatalf("k=%d: value %d applied but never invoked", k, v)
			}
			seen[v] = true
		}
		for v := range r.returned {
			if !seen[v] {
				t.Fatalf("k=%d: returned value %d missing from the sink %v", k, v, r.sink)
			}
		}
		if r.aband > 0 {
			abandoned++
		}
	}
	// A crash inside either pc1 span abandons its window; most k land there.
	if abandoned == 0 {
		t.Fatalf("no crash point of %d abandoned anything: the sweep missed the publish/wait spans", clean.steps)
	}
	t.Logf("%d crash points, %d abandoned a window", clean.steps, abandoned)
}

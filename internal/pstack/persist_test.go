package pstack

import (
	"fmt"
	"slices"
	"testing"

	"delayfree/internal/capsule"
	"delayfree/internal/pmem"
	"delayfree/internal/proc"
	"delayfree/internal/rcas"
)

// Tests of the stack's own persists: what a push-pop pair costs beside
// the capsule protocol around it, and crash sweeps over every place the
// protocol leans on a later fence instead of its own — the node written
// in the push executor, the pop generator's unflushed reads, and the
// volatile spare a popped node waits in until the next push.

type pairCost struct{ flushes, fences float64 }

// costPerPair runs the stack_crash driver shape for n1 and then n2
// pairs on fresh shared-model environments and returns the per-pair
// difference, which leaves out Install and the first push's allocation.
// With twin set, the driver calls a routine with the stack's capsule
// shape and no stack in it.
func costPerPair(t *testing.T, twin bool) pairCost {
	const n1, n2 = 4, 12
	var st [2]pmem.Stats
	for i, n := range []uint64{n1, n2} {
		e := newEnv(t, 1, pmem.Shared, 1, true, true)
		ops, push, pop := e.s.Routine(), e.s.PushEntry(), e.s.PopEntry()
		if twin {
			ops, push, pop = e.reg.Register("stack-twin", true,
				func(c *capsule.Ctx) { c.SetLocal(sN, 1); c.SetLocal(sTop, 2); c.Boundary(1) },
				func(c *capsule.Ctx) { c.NextSeq(); c.Done() },
				func(c *capsule.Ctx) { c.SetLocal(sTop, 2); c.SetLocal(sNx, 3); c.Boundary(3) },
				func(c *capsule.Ctx) { c.NextSeq(); c.Done(1, c.Local(sV)) },
			), 0, 2
		}
		// The bench driver: a full frame whose Calls carry no dirty
		// locals, and whose loop boundary persists the pair index, the
		// popped sum and the pop count.
		drv := e.reg.Register("pair-driver", false,
			func(c *capsule.Ctx) {
				if c.Local(1) == n {
					c.Finish()
					return
				}
				c.Call(ops, push, 1, []uint64{c.Local(1) + 1}, nil)
			},
			func(c *capsule.Ctx) { c.Call(ops, pop, 2, nil, []int{2, 3}) },
			func(c *capsule.Ctx) {
				c.SetLocal(4, c.Local(4)+c.Local(3))
				c.SetLocal(5, c.Local(5)+c.Local(2))
				c.SetLocal(1, c.Local(1)+1)
				c.Boundary(0)
			},
		)
		runDriver(e, drv, 0)
		st[i] = e.rt.Proc(0).Mem().Stats
	}
	d := st[1].Sub(st[0])
	return pairCost{float64(d.EffectiveFlushes()) / (n2 - n1), float64(d.Fences) / (n2 - n1)}
}

// TestPairPersistCost pins the stack's own share of a push-pop pair in
// effective flushes + fences: the pair minus its capsule-shaped twin.
// The twin's 13 + 12 is the capsule protocol's — two Calls, two Returns,
// two generator boundaries and the driver's loop boundary. The stack's
// 7 + 0: push, the node's line and the recoverable CAS's three flushes
// (notify's flush of the cell, the announcement, the cell after the
// CAS); pop, the CAS's three. No fence: the node's flush drains at the
// CAS, and both cell flushes at the Return's first fence.
func TestPairPersistCost(t *testing.T) {
	pair, twin := costPerPair(t, false), costPerPair(t, true)
	if want := (pairCost{13, 12}); twin != want {
		t.Fatalf("capsule twin %+v, want %+v", twin, want)
	}
	stack := pairCost{pair.flushes - twin.flushes, pair.fences - twin.fences}
	if want := (pairCost{7, 0}); stack != want {
		t.Fatalf("stack's share of a pair %+v (pair %+v), want %+v", stack, pair, want)
	}
}

// runDriver installs drv with args, arms a crash at crashAt (0: none),
// runs it to completion, ends with a full-system crash and returns the
// durable driver locals and the steps the run took.
func runDriver(e *env, drv capsule.RoutineID, crashAt int64, args ...uint64) ([]uint64, int64) {
	port := e.rt.Proc(0).Mem()
	capsule.Install(port, e.bases[0], e.reg, drv, args...)
	s0 := port.Stats.Steps
	if crashAt > 0 {
		e.rt.Proc(0).ArmCrashAfter(crashAt)
	}
	e.rt.RunToCompletion(func(i int) proc.Program {
		return func(p *proc.Proc) { capsule.NewMachine(p, e.reg, e.bases[i]).Run() }
	})
	steps := int64(port.Stats.Steps - s0)
	e.rt.Proc(0).Disarm()
	e.rt.CrashSystem()
	_, _, locals := capsule.NewMachine(e.rt.Proc(0), e.reg, e.bases[0]).LoadState()
	return locals, steps
}

// TestSpareSurvivesRestart crashes a run of pairs while a popped node
// sits in the spare, and then requires the pairs after the restart to
// recycle through the spare again: a spare left from before the crash
// must count as empty, not as full, or every later pop would pay the
// free list's persists and every push the allocator's. Nor may the bump
// cursor move.
func TestSpareSurvivesRestart(t *testing.T) {
	const pairs = 8
	for _, mode := range []pmem.Mode{pmem.Private, pmem.Shared} {
		e := newEnv(t, 1, mode, 1, true, mode == pmem.Shared)
		var cursor []uint64
		var stats []pmem.Stats
		crashed := false
		drv := e.reg.Register("restart-driver", false,
			func(c *capsule.Ctx) {
				if c.Local(1) == pairs {
					c.Finish()
					return
				}
				stats = append(stats, c.Mem().Stats)
				cursor = append(cursor, c.Mem().Read(e.s.pa[0].StateAddr()))
				c.Call(e.s.Routine(), e.s.PushEntry(), 1, []uint64{100 + c.Local(1)}, nil)
			},
			func(c *capsule.Ctx) { c.Call(e.s.Routine(), e.s.PopEntry(), 2, nil, []int{3, 4}) },
			func(c *capsule.Ctx) {
				if c.Local(1) == 2 && !crashed {
					crashed = true
					c.P().CrashNow() // pair 2's pop has filled the spare
				}
				c.SetLocal(1, c.Local(1)+1)
				c.Boundary(0)
			},
		)
		runDriver(e, drv, 0)
		if r := e.rt.Proc(0).Restarts(); r != 1 {
			t.Fatalf("mode=%v: %d restarts, want 1", mode, r)
		}
		n := len(stats)
		before := stats[2].Sub(stats[1]) // pair 1 pushes pair 0's spare
		after := stats[n-1].Sub(stats[n-2])
		if after.EffectiveFlushes() != before.EffectiveFlushes() || after.Fences != before.Fences {
			t.Fatalf("mode=%v: the last pair costs %d + %d after the restart, pair 1 cost %d + %d",
				mode, after.EffectiveFlushes(), after.Fences, before.EffectiveFlushes(), before.Fences)
		}
		if cursor[n-1] != cursor[n-4] {
			t.Fatalf("mode=%v: bump cursor moved %d -> %d over the last three pairs", mode, cursor[n-4], cursor[n-1])
		}
	}
}

// sweepStack runs a scenario crash-free and then once per instrumented
// step with a crash armed there, in the private model and in the shared
// model with full-system crashes. run returns the steps it took and
// whether the outcome was exact.
func sweepStack(t *testing.T, run func(mode pmem.Mode, seed, crashAt int64) (int64, error)) {
	t.Helper()
	for _, mode := range []pmem.Mode{pmem.Private, pmem.Shared} {
		total, err := run(mode, 1, 0)
		if err != nil {
			t.Fatalf("mode=%v crash-free: %v", mode, err)
		}
		for k := int64(1); k <= total; k++ {
			if _, err := run(mode, k, k); err != nil {
				t.Fatalf("mode=%v crash@%d: %v", mode, k, err)
			}
		}
	}
}

// newSweepEnv is a one-process environment with compact frames, the
// durable protocol in the shared model, and n seeded values 1..n (n on
// top).
func newSweepEnv(t *testing.T, mode pmem.Mode, seed int64, n uint32) *env {
	e := newSeededEnv(t, 1, mode, seed, true, mode == pmem.Shared, n)
	e.s.Seed(e.rt.Proc(0).Mem(), 1, n, func(i uint32) uint64 { return uint64(i + 1) })
	return e
}

// The pop-push scenario: three times, pop the top and push its value
// plus 100, then push 999. Every push but the last reuses the node the
// pop before it left as the spare; the last one allocates, so a node
// owned twice — by the stack and by the allocator — is rewritten there.
// popPushStates is the stack after each operation, top first.
var (
	popPushOps    = []int{pcPopGen, pcPushGen, pcPopGen, pcPushGen, pcPopGen, pcPushGen, pcPushGen}
	popPushStates = [][]uint64{{2, 1}, {1}, {102, 1}, {1}, {202, 1}, {1}, {302, 1}, {999, 302, 1}}
)

// drainSafe is Drain on a port of its own, with a cycle panic turned
// into an error.
func drainSafe(e *env) (vals []uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return e.s.Drain(e.rt.Mem().NewPort()), nil
}

// checkStack compares the stack with popPushStates[k].
func checkStack(e *env, k int) error {
	got, err := drainSafe(e)
	if err == nil && !slices.Equal(got, popPushStates[k]) {
		err = fmt.Errorf("stack %v, want %v", got, popPushStates[k])
	}
	return err
}

// TestSpareReuseCallCrashSweep runs the pop-push scenario at depth 1
// under Call — the stack_crash shape, where the pop's Return has fenced
// its removal before the push takes the spare.
func TestSpareReuseCallCrashSweep(t *testing.T) {
	sweepStack(t, func(mode pmem.Mode, seed, crashAt int64) (int64, error) {
		e := newSweepEnv(t, mode, seed, 2)
		drv := e.reg.Register("pop-push-driver", false,
			func(c *capsule.Ctx) { // slot 1: pairs done, 6: last push done
				switch {
				case c.Local(1) < 3:
					c.Call(e.s.Routine(), e.s.PopEntry(), 1, nil, []int{3, 4})
				case c.Local(6) == 0:
					c.SetLocal(6, 1)
					c.Call(e.s.Routine(), e.s.PushEntry(), 0, []uint64{999}, nil)
				default:
					c.Finish()
				}
			},
			func(c *capsule.Ctx) {
				c.SetLocal(5, c.Local(5)+c.Local(4))
				c.Call(e.s.Routine(), e.s.PushEntry(), 2, []uint64{c.Local(4) + 100}, nil)
			},
			func(c *capsule.Ctx) {
				c.SetLocal(1, c.Local(1)+1)
				c.Boundary(0)
			},
		)
		locals, steps := runDriver(e, drv, crashAt)
		if got, want := locals[5], uint64(2+102+202); got != want {
			return steps, fmt.Errorf("popped sum %d, want %d", got, want)
		}
		return steps, checkStack(e, len(popPushStates)-1)
	})
}

// TestSpareReuseInvokeCrashSweep runs the pop-push scenario at depth 0
// under Invoke, the harness shape. A pop's completion is volatile there,
// so no Return has fenced its removal when the push takes the spare.
// Invoke loses only its volatile caller: the restarted program lets
// Machine.Run finish the interrupted operation, learns from the stack
// whether that operation took effect, and carries on. The host's count
// of completed operations survives the crash.
func TestSpareReuseInvokeCrashSweep(t *testing.T) {
	sweepStack(t, func(mode pmem.Mode, seed, crashAt int64) (int64, error) {
		e := newSweepEnv(t, mode, seed, 2)
		port := e.rt.Proc(0).Mem()
		capsule.InstallIdle(port, e.bases[0], e.reg, e.s.Routine())
		s0 := port.Stats.Steps
		if crashAt > 0 {
			e.rt.Proc(0).ArmCrashAfter(crashAt)
		}
		done := 0
		var err error
		e.rt.RunToCompletion(func(i int) proc.Program {
			return func(p *proc.Proc) {
				m := capsule.NewMachine(p, e.reg, e.bases[i])
				if p.PeekCrashed() {
					m.Run()
					if checkStack(e, done+1) == nil {
						done++
					} else if err = checkStack(e, done); err != nil {
						err = fmt.Errorf("recovered after %d operations: %v", done, err)
						return
					}
				}
				for ; done < len(popPushOps); done++ {
					before := popPushStates[done]
					if popPushOps[done] == pcPushGen {
						v := uint64(999)
						if done < 6 {
							v = popPushStates[done-1][0] + 100
						}
						m.Invoke(e.s.Routine(), e.s.PushEntry(), v)
					} else if r := m.Invoke(e.s.Routine(), e.s.PopEntry()); r[0] != 1 || r[1] != before[0] {
						err = fmt.Errorf("operation %d popped %v, want [1 %d]", done, r, before[0])
						return
					}
				}
			}
		})
		steps := int64(port.Stats.Steps - s0)
		if err == nil {
			err = checkStack(e, done)
		}
		return steps, err
	})
}

// TestSpareReuseFencesRemoval pins alloc's postcondition: after a depth-0
// pop, whose completion is volatile and whose flush of the top cell is
// still unfenced, a push gets the spare only once that removal is
// durable. The push generator's boundary fences the same flush before
// the executor writes the node, so no crash sweep can see this fence go;
// alloc holds it so that its contract does not rest on its caller.
func TestSpareReuseFencesRemoval(t *testing.T) {
	e := newSweepEnv(t, pmem.Shared, 1, 2)
	mem := e.rt.Mem()
	var durable, unfenced bool
	// The stack's own capsules plus a probe, in one routine: Invoking a
	// different routine would fence on the frame header switch.
	probed := e.reg.Register("probed-ops", true, e.s.pushGen, e.s.pushExec, e.s.popGen, e.s.popExec,
		func(c *capsule.Ctx) {
			n := e.s.alloc(c)
			durable = mem.PersistedWord(e.s.top) == mem.VisibleWord(e.s.top)
			unfenced = c.Mem().HasUnfencedFlush()
			c.Finish(uint64(n))
		})
	capsule.InstallIdle(e.rt.Proc(0).Mem(), e.bases[0], e.reg, probed)
	var err error
	e.rt.RunToCompletion(func(i int) proc.Program {
		return func(p *proc.Proc) {
			m := capsule.NewMachine(p, e.reg, e.bases[i])
			if r := m.Invoke(probed, pcPopGen); r[1] != 2 {
				err = fmt.Errorf("pop returned %v, want [1 2]", r)
			} else if !p.Mem().HasUnfencedFlush() {
				err = fmt.Errorf("the pop left no unfenced flush: the probe tests nothing")
			} else if r := m.Invoke(probed, 4); r[0] != 2 {
				err = fmt.Errorf("alloc returned node %d, want the popped node 2", r[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !durable || unfenced {
		t.Fatalf("spare handed out with its removal durable=%v, unfenced flush=%v", durable, unfenced)
	}
}

// TestSeedDurable: seeded nodes must be durable, since pop reads them
// without flushing. A full-system crash straight after Seed keeps them
// all.
func TestSeedDurable(t *testing.T) {
	const n = 64
	e := newSweepEnv(t, pmem.Shared, 7, n)
	e.rt.CrashSystem()
	got := e.s.Drain(e.rt.Proc(0).Mem())
	for i, v := range got {
		if v != uint64(n-i) {
			t.Fatalf("after a crash the seeded stack drains %v, want %d..1", got, n)
		}
	}
	if len(got) != n {
		t.Fatalf("after a crash the seeded stack drains %d values, want %d", len(got), n)
	}
}

// TestWalkPanicsOnCycle: Len and Drain stop on a link cycle instead of
// running out of memory.
func TestWalkPanicsOnCycle(t *testing.T) {
	e := newEnv(t, 1, pmem.Private, 1, true, false)
	port := e.rt.Proc(0).Mem()
	rcas.InitCell(port, e.s.top, 1, 0, 1)
	rcas.InitCell(port, e.s.link(1), 2, 0, 1)
	rcas.InitCell(port, e.s.link(2), 1, 0, 1)
	for name, f := range map[string]func(){
		"Len":   func() { e.s.Len(port) },
		"Drain": func() { e.s.Drain(port) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s returned on a 2-node cycle", name)
				}
			}()
			f()
		}()
	}
}

package capsule

import (
	"fmt"
	"testing"

	"delayfree/internal/pmem"
	"delayfree/internal/proc"
)

// Crash sweeps over the live-bit Call/Return protocol: the active frame
// is whatever the per-frame live bits say, so the hazards are a bit that
// outlives its callee (an elided return nobody cleared) and a commit
// window in which the control word and the bit disagree.

// sweepLive runs the scenario crash-free, then once per instrumented
// step with a crash armed at that step, in both failure models, and
// requires the exact Finish value every time.
func sweepLive(t *testing.T, want uint64, mk func(mode pmem.Mode, seed int64) *roEnv) {
	t.Helper()
	for _, mode := range []pmem.Mode{pmem.Private, pmem.Shared} {
		e := mk(mode, 1)
		e.install()
		if rets := e.run(); len(rets) != 1 || rets[0] != want {
			t.Fatalf("mode=%v crash-free: rets=%v, want [%d]", mode, rets, want)
		}
		total := int64(e.rt.Proc(0).Mem().Stats.Steps)
		for k := int64(1); k <= total; k++ {
			e := mk(mode, k)
			e.install()
			e.rt.SystemCrashMode = mode == pmem.Shared
			e.rt.Proc(0).ArmCrashAfter(k)
			rets := e.run()
			e.checkFinal(t, fmt.Sprintf("mode=%v crash@%d", mode, k), want, rets)
		}
	}
}

// TestNestedCallCrashSweep nests two persisted Calls: the driver calls a
// full-frame mid routine that keeps a dirty local across its own Call to
// a leaf, so recovery has to follow two live bits and both Returns have
// to clear exactly their caller's. The leaf increments a persistent cell
// and returns its new value, leaving the cell's flush unfenced for its
// Return to complete: a Return that cleared the live bit before
// committing the control word would re-run the Call and count twice.
func TestNestedCallCrashSweep(t *testing.T) {
	const n = 3
	for _, leafCompact := range []bool{false, true} {
		sweepLive(t, n*(n+1)/2, func(mode pmem.Mode, seed int64) *roEnv {
			e := newROBase(mode, seed)
			leaf := e.reg.Register("leaf", leafCompact,
				func(c *Ctx) {
					c.SetLocal(1, c.Mem().Read(e.results))
					c.Boundary(1)
				},
				func(c *Ctx) {
					c.Mem().Write(e.results, c.Local(1)+1)
					c.Mem().Flush(e.results)
					c.Return(c.Local(1) + 1)
				},
			)
			mid := e.reg.Register("mid", false,
				func(c *Ctx) {
					c.SetLocal(3, 7)
					c.Call(leaf, 0, 1, nil, []int{2})
				},
				func(c *Ctx) { // slot 3 survived the call iff the sum is exact
					c.Return(c.Local(2) + c.Local(3) - 7)
				},
			)
			e.drv = e.reg.Register("nest-driver", false,
				func(c *Ctx) {
					if c.Local(roDrvIdx) >= n {
						c.Finish(c.Local(roDrvAcc))
						return
					}
					c.Call(mid, 0, 1, nil, []int{roDrvRet})
				},
				func(c *Ctx) {
					c.SetLocal(roDrvAcc, c.Local(roDrvAcc)+c.Local(roDrvRet))
					c.SetLocal(roDrvIdx, c.Local(roDrvIdx)+1)
					c.Boundary(0)
				},
			)
			return e
		})
	}
}

// TestStaleLiveBitCrashSweep leaves a live bit durable in a frame that
// has returned: the lookup at depth 2 elides its return, and the mid
// routine at depth 1 then returns with a persisted Return, which clears
// the driver's bit but not its own. Every later iteration Calls the same
// routine into the same frame; unless that Call's frame init clears the
// stale bit, recovery walks past the new callee into the previous
// iteration's lookup frame and delivers its value.
func TestStaleLiveBitCrashSweep(t *testing.T) {
	const n = 4
	sweepLive(t, wantSum(n), func(mode pmem.Mode, seed int64) *roEnv {
		return newROEnv(mode, seed, n, func(e *roEnv) RoutineID {
			lookup := readOnlyOp(e)
			return e.reg.Register("mid", false,
				func(c *Ctx) { c.Call(lookup, 0, 1, []uint64{c.Local(roOpArg)}, []int{roOpIdx}) },
				func(c *Ctx) { c.Return(c.Local(roOpIdx)) },
			)
		})
	})
}

// TestCallAfterElidedReturnCrashSweep Calls again straight from the
// continuation of an elided return, with no persisted boundary in
// between: the Call must durably clear the caller's stale live bit before
// it reinitialises the frame the bit still names.
func TestCallAfterElidedReturnCrashSweep(t *testing.T) {
	const n = 4
	for _, addCompact := range []bool{false, true} {
		sweepLive(t, wantSum(n), func(mode pmem.Mode, seed int64) *roEnv {
			e := newROBase(mode, seed)
			lookup := readOnlyOp(e)
			add := e.reg.Register("add", addCompact,
				func(c *Ctx) { c.Return(c.Local(1) + c.Local(2)) },
			)
			e.drv = e.reg.Register("recall-driver", false,
				func(c *Ctx) {
					i := c.Local(roDrvIdx)
					if i >= n {
						c.Finish(c.Local(roDrvAcc))
						return
					}
					c.Call(lookup, 0, 1, []uint64{i}, []int{roDrvRet})
				},
				func(c *Ctx) {
					c.Call(add, 0, 2, []uint64{c.Local(roDrvAcc), c.Local(roDrvRet)}, []int{roDrvAcc})
				},
				func(c *Ctx) {
					c.SetLocal(roDrvIdx, c.Local(roDrvIdx)+1)
					c.Boundary(0)
				},
			)
			return e
		})
	}
}

// TestDetectInReturnCommitWindow crashes at every step of one Call/Return
// and, on restart, inspects the frames before resuming. In the window
// where the Return has made the caller's control word durable but has not
// yet cleared the live bit, the restart point is still the callee, so
// Detect must report the operation in flight at depth 1.
func TestDetectInReturnCommitWindow(t *testing.T) {
	e := newCallEnv(pmem.Private, 1, true)
	e.run(1)
	total := int64(e.rt.Proc(0).Mem().Stats.Steps)
	windows := 0
	for k := int64(1); k <= total; k++ {
		e := newCallEnv(pmem.Private, 1, true)
		Install(e.rt.Proc(0).Mem(), e.base, e.reg, e.main, 1)
		e.rt.Proc(0).ArmCrashAfter(k)
		e.rt.RunToCompletion(func(int) proc.Program {
			return func(p *proc.Proc) {
				m := NewMachine(p, e.reg, e.base)
				if p.Crashed() {
					fr := frameAddr(e.base, 0)
					pc, _ := unpackCtl(e.rt.Mem().VisibleWord(fr + frameCtlOff))
					live := e.rt.Mem().VisibleWord(fr+framePendingOff)&pendingLive != 0
					if pc == 1 && live {
						windows++
						if v := m.Detect(2); !v.InFlight || v.Depth != 1 {
							t.Errorf("crash@%d: control word committed, live bit set: verdict %+v, want in flight at depth 1", k, v)
						}
					}
				}
				m.Run()
			}
		})
		if got := e.rt.Mem().VisibleWord(e.cell); got != 1 {
			t.Fatalf("crash@%d: acc=%d, want 1", k, got)
		}
	}
	if windows != 1 {
		t.Fatalf("sweep hit the commit window %d times, want exactly 1", windows)
	}
}

// TestCompactFramePendingIgnored plants a live bit in a compact frame's
// pending word: a compact routine cannot call, so recovery must stop at
// it without reading the word.
func TestCompactFramePendingIgnored(t *testing.T) {
	e := newCounterEnv(pmem.Private, 1, true)
	port := e.rt.Proc(0).Mem()
	Install(port, e.base, e.reg, e.main, 3)
	port.Write(frameAddr(e.base, 0)+framePendingOff, pendingLive)
	if depth, pc, _ := NewMachine(e.rt.Proc(0), e.reg, e.base).LoadState(); depth != 0 || pc != 0 {
		t.Fatalf("recovered depth=%d pc=%d, want the compact frame at depth 0, pc 0", depth, pc)
	}
}

package capsule

import (
	"testing"

	"delayfree/internal/pmem"
	"delayfree/internal/proc"
)

// counterEnv wires up a one-process runtime with a persistent counter
// cell and a registry holding a correctly encapsulated increment loop:
//
//	pc0: if remaining==0 finish; else read C into a local; boundary
//	pc1: write C = local+1 (idempotent: first op, persisted input);
//	     remaining--; boundary -> pc0
//
// The loop is correctly encapsulated per Section 6: the read of C and
// the write to C are in different capsules (avoiding the write-after-
// read conflict), so the counter must end exactly at N no matter where
// crashes land.
type counterEnv struct {
	rt   *proc.Runtime
	reg  *Registry
	main RoutineID
	cell pmem.Addr
	base pmem.Addr
}

const (
	slotRemaining = 1
	slotVal       = 2
)

func newCounterEnv(mode pmem.Mode, seed int64, compact bool) *counterEnv {
	mem := pmem.New(pmem.Config{Words: 1 << 14, Mode: mode, Checked: true, Seed: seed})
	rt := proc.NewRuntime(mem, 1)
	e := &counterEnv{rt: rt, cell: mem.AllocLines(1)}
	e.base = AllocProcAreas(mem, 1)[0]
	e.reg = NewRegistry()
	e.main = e.reg.Register("counter", compact,
		func(c *Ctx) { // pc0
			if c.Local(slotRemaining) == 0 {
				c.Finish(c.Local(slotVal))
				return
			}
			v := c.Mem().Read(e.cell)
			c.SetLocal(slotVal, v)
			c.Boundary(1)
		},
		func(c *Ctx) { // pc1
			c.Mem().Write(e.cell, c.Local(slotVal)+1)
			c.Mem().FlushFence(e.cell)
			c.SetLocal(slotRemaining, c.Local(slotRemaining)-1)
			c.SetLocal(slotVal, c.Local(slotVal)+1)
			c.Boundary(0)
		},
	)
	return e
}

func (e *counterEnv) install(n uint64) {
	Install(e.rt.Proc(0).Mem(), e.base, e.reg, e.main, n)
}

func (e *counterEnv) program() proc.Program {
	return func(p *proc.Proc) {
		NewMachine(p, e.reg, e.base).Run()
	}
}

func TestCounterNoCrash(t *testing.T) {
	for _, compact := range []bool{false, true} {
		e := newCounterEnv(pmem.Private, 1, compact)
		e.install(10)
		e.rt.RunToCompletion(func(int) proc.Program { return e.program() })
		if got := e.rt.Mem().VisibleWord(e.cell); got != 10 {
			t.Fatalf("compact=%v: counter=%d, want 10", compact, got)
		}
	}
}

// TestCounterCrashSweepPrivate injects a crash at every possible
// instrumented step of the run (private model: volatile state lost,
// memory intact) and checks the counter is exact.
func TestCounterCrashSweepPrivate(t *testing.T) {
	for _, compact := range []bool{false, true} {
		// First measure a crash-free run's step count.
		e := newCounterEnv(pmem.Private, 1, compact)
		e.install(5)
		e.rt.RunToCompletion(func(int) proc.Program { return e.program() })
		total := int64(e.rt.Proc(0).Mem().Stats.Steps)
		if total < 20 {
			t.Fatalf("suspiciously few steps: %d", total)
		}
		for k := int64(1); k <= total; k++ {
			e := newCounterEnv(pmem.Private, 1, compact)
			e.install(5)
			e.rt.Proc(0).ArmCrashAfter(k)
			e.rt.RunToCompletion(func(int) proc.Program { return e.program() })
			if got := e.rt.Mem().VisibleWord(e.cell); got != 5 {
				t.Fatalf("compact=%v crash@%d: counter=%d, want 5 (restarts=%d)",
					compact, k, got, e.rt.Proc(0).Restarts())
			}
		}
	}
}

// TestCounterCrashSweepShared does the same in the shared-cache model:
// each injected crash escalates to a full-system crash that drops a
// random prefix of every unflushed line. The boundary protocol's flushes
// and fences must make this safe for any crash point and any eviction
// outcome.
func TestCounterCrashSweepShared(t *testing.T) {
	for _, compact := range []bool{false, true} {
		e := newCounterEnv(pmem.Shared, 1, compact)
		e.install(4)
		e.rt.RunToCompletion(func(int) proc.Program { return e.program() })
		total := int64(e.rt.Proc(0).Mem().Stats.Steps)
		for seed := int64(0); seed < 3; seed++ {
			for k := int64(1); k <= total; k++ {
				e := newCounterEnv(pmem.Shared, seed, compact)
				e.rt.SystemCrashMode = true
				e.install(4)
				e.rt.Proc(0).ArmCrashAfter(k)
				e.rt.RunToCompletion(func(int) proc.Program { return e.program() })
				if got := e.rt.Mem().VisibleWord(e.cell); got != 4 {
					t.Fatalf("compact=%v seed=%d crash@%d: counter=%d, want 4",
						compact, seed, k, got)
				}
			}
		}
	}
}

// TestCounterRandomCrashStorm runs a longer counter under repeated
// randomized crashes.
func TestCounterRandomCrashStorm(t *testing.T) {
	for _, compact := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			e := newCounterEnv(pmem.Shared, seed, compact)
			e.rt.SystemCrashMode = true
			e.install(50)
			e.rt.Proc(0).AutoCrash(seed, 5, 60)
			done := make(chan struct{})
			go func() {
				e.rt.RunToCompletion(func(int) proc.Program { return e.program() })
				close(done)
			}()
			<-done
			e.rt.Proc(0).Disarm()
			if got := e.rt.Mem().VisibleWord(e.cell); got != 50 {
				t.Fatalf("compact=%v seed=%d: counter=%d, want 50 (restarts=%d)",
					compact, seed, got, e.rt.Proc(0).Restarts())
			}
			if e.rt.Proc(0).Restarts() == 0 {
				t.Fatalf("seed=%d: crash storm never crashed", seed)
			}
		}
	}
}

// callEnv exercises Call/Return: main accumulates by calling an addOne
// routine N times, then writes the result to a cell.
type callEnv struct {
	rt   *proc.Runtime
	reg  *Registry
	main RoutineID
	cell pmem.Addr
	base pmem.Addr
}

func newCallEnv(mode pmem.Mode, seed int64, calleeCompact bool) *callEnv {
	mem := pmem.New(pmem.Config{Words: 1 << 14, Mode: mode, Checked: true, Seed: seed})
	rt := proc.NewRuntime(mem, 1)
	e := &callEnv{rt: rt, cell: mem.AllocLines(1)}
	e.base = AllocProcAreas(mem, 1)[0]
	e.reg = NewRegistry()
	addOne := e.reg.Register("addOne", calleeCompact,
		func(c *Ctx) {
			c.Return(c.Local(1) + 1)
		},
	)
	const (
		slotN   = 1
		slotAcc = 2
	)
	e.main = e.reg.Register("main", false,
		func(c *Ctx) { // pc0: loop head
			if c.Local(slotN) == 0 {
				c.Boundary(2)
				return
			}
			c.Call(addOne, 0, 1, []uint64{c.Local(slotAcc)}, []int{slotAcc})
		},
		func(c *Ctx) { // pc1: after return
			c.SetLocal(slotN, c.Local(slotN)-1)
			c.Boundary(0)
		},
		func(c *Ctx) { // pc2: write out and finish
			c.Mem().Write(e.cell, c.Local(slotAcc))
			c.Mem().FlushFence(e.cell)
			c.Finish(c.Local(slotAcc))
		},
	)
	return e
}

func (e *callEnv) run(n uint64) {
	Install(e.rt.Proc(0).Mem(), e.base, e.reg, e.main, n)
	e.rt.RunToCompletion(func(int) proc.Program {
		return func(p *proc.Proc) { NewMachine(p, e.reg, e.base).Run() }
	})
}

func TestCallReturnNoCrash(t *testing.T) {
	for _, compact := range []bool{false, true} {
		e := newCallEnv(pmem.Private, 1, compact)
		e.run(7)
		if got := e.rt.Mem().VisibleWord(e.cell); got != 7 {
			t.Fatalf("calleeCompact=%v: acc=%d, want 7", compact, got)
		}
	}
}

func TestCallReturnCrashSweep(t *testing.T) {
	for _, mode := range []pmem.Mode{pmem.Private, pmem.Shared} {
		for _, compact := range []bool{false, true} {
			e := newCallEnv(mode, 1, compact)
			e.run(3)
			total := int64(e.rt.Proc(0).Mem().Stats.Steps)
			for k := int64(1); k <= total; k++ {
				e := newCallEnv(mode, k, compact)
				e.rt.SystemCrashMode = mode == pmem.Shared
				Install(e.rt.Proc(0).Mem(), e.base, e.reg, e.main, 3)
				e.rt.Proc(0).ArmCrashAfter(k)
				e.rt.RunToCompletion(func(int) proc.Program {
					return func(p *proc.Proc) { NewMachine(p, e.reg, e.base).Run() }
				})
				if got := e.rt.Mem().VisibleWord(e.cell); got != 3 {
					t.Fatalf("mode=%v compact=%v crash@%d: acc=%d, want 3",
						mode, compact, k, got)
				}
			}
		}
	}
}

// TestSeqThreading checks that the reserved sequence-number slot is
// monotone within a routine and threads through Call/Return.
func TestSeqThreading(t *testing.T) {
	mem := pmem.New(pmem.Config{Words: 1 << 14, Mode: pmem.Private, Checked: true})
	rt := proc.NewRuntime(mem, 1)
	base := AllocProcAreas(mem, 1)[0]
	reg := NewRegistry()
	var seqs []uint64
	callee := reg.Register("bump", false,
		func(c *Ctx) {
			seqs = append(seqs, c.NextSeq())
			c.Return()
		},
	)
	main := reg.Register("main", false,
		func(c *Ctx) {
			seqs = append(seqs, c.NextSeq())
			c.Call(callee, 0, 1, nil, nil)
		},
		func(c *Ctx) {
			seqs = append(seqs, c.NextSeq())
			c.Finish()
		},
	)
	Install(rt.Proc(0).Mem(), base, reg, main)
	rt.RunToCompletion(func(int) proc.Program {
		return func(p *proc.Proc) { NewMachine(p, reg, base).Run() }
	})
	want := []uint64{1, 2, 3}
	if len(seqs) != len(want) {
		t.Fatalf("seqs=%v", seqs)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("seqs=%v, want %v", seqs, want)
		}
	}
}

// TestFinishPersists verifies that a crash after Finish does not re-run
// the program.
func TestFinishPersists(t *testing.T) {
	mem := pmem.New(pmem.Config{Words: 1 << 14, Mode: pmem.Private, Checked: true})
	rt := proc.NewRuntime(mem, 1)
	base := AllocProcAreas(mem, 1)[0]
	cell := mem.AllocLines(1)
	reg := NewRegistry()
	main := reg.Register("once", false,
		func(c *Ctx) {
			v := c.Mem().Read(cell)
			c.SetLocal(1, v)
			c.Boundary(1)
		},
		func(c *Ctx) {
			c.Mem().Write(cell, c.Local(1)+1)
			c.Finish()
		},
	)
	Install(rt.Proc(0).Mem(), base, reg, main)
	runs := 0
	rt.RunToCompletion(func(int) proc.Program {
		return func(p *proc.Proc) {
			runs++
			m := NewMachine(p, reg, base)
			m.Run()
			if runs == 1 {
				// Crash after the machine finished but before the
				// program exits.
				p.CrashNow()
				p.Mem().Read(cell)
			}
		}
	})
	if got := mem.VisibleWord(cell); got != 1 {
		t.Fatalf("cell=%d, want 1 (program re-ran after Finish)", got)
	}
	if runs != 2 {
		t.Fatalf("runs=%d", runs)
	}
}

// TestCompactEpochRecovery checks the ping/pong line selection directly:
// after many boundaries, the machine recovers the latest epoch.
func TestCompactEpochRecovery(t *testing.T) {
	mem := pmem.New(pmem.Config{Words: 1 << 14, Mode: pmem.Private, Checked: true})
	rt := proc.NewRuntime(mem, 1)
	base := AllocProcAreas(mem, 1)[0]
	reg := NewRegistry()
	main := reg.Register("spin", true,
		func(c *Ctx) {
			n := c.Local(1)
			if n == 0 {
				c.Finish()
				return
			}
			c.SetLocal(1, n-1)
			c.SetLocal(2, c.Local(2)+n)
			c.Boundary(0)
		},
	)
	Install(rt.Proc(0).Mem(), base, reg, main, 9)
	// Crash frequently; the window must exceed the worst-case
	// recovery-plus-capsule step count or the run livelocks.
	rt.Proc(0).AutoCrash(3, 8, 64)
	rt.RunToCompletion(func(int) proc.Program {
		return func(p *proc.Proc) {
			m := NewMachine(p, reg, base)
			m.Run()
			p.Disarm()
		}
	})
	// sum 1..9 = 45 must be in slot 2 of the last persisted line.
	m := NewMachine(rt.Proc(0), reg, base)
	m.reload()
	if got := m.vol[0][2]; got != 45 {
		t.Fatalf("recovered acc=%d, want 45", got)
	}
}

func TestRoutineValidation(t *testing.T) {
	reg := NewRegistry()
	mustPanic(t, "empty routine", func() { reg.Register("x", false) })
	id := reg.Register("ok", false, func(c *Ctx) { c.Finish() })
	if reg.Routine(id).Name != "ok" {
		t.Fatal("routine lookup failed")
	}
	mustPanic(t, "unknown routine", func() { reg.Routine(99) })
}

func TestCapsuleMustTerminate(t *testing.T) {
	mem := pmem.New(pmem.Config{Words: 1 << 14})
	rt := proc.NewRuntime(mem, 1)
	base := AllocProcAreas(mem, 1)[0]
	reg := NewRegistry()
	main := reg.Register("bad", false, func(c *Ctx) {})
	Install(rt.Proc(0).Mem(), base, reg, main)
	mustPanic(t, "non-terminated capsule", func() {
		NewMachine(rt.Proc(0), reg, base).Run()
	})
}

func TestDoubleTerminalPanics(t *testing.T) {
	mem := pmem.New(pmem.Config{Words: 1 << 14})
	rt := proc.NewRuntime(mem, 1)
	base := AllocProcAreas(mem, 1)[0]
	reg := NewRegistry()
	main := reg.Register("bad", false, func(c *Ctx) {
		c.Boundary(0)
		c.Boundary(0)
	})
	Install(rt.Proc(0).Mem(), base, reg, main)
	mustPanic(t, "double terminal", func() {
		NewMachine(rt.Proc(0), reg, base).Run()
	})
}

func TestPackingRoundTrips(t *testing.T) {
	pc, mask := unpackCtl(packCtl(0x123, 0xABCDEF))
	if pc != 0x123 || mask != 0xABCDEF {
		t.Fatalf("ctl round trip: %x %x", pc, mask)
	}
	var rs [MaxRet]int
	p2, m2, n := unpackPendingTo(packPending(0x55, 0x00FF00, []int{3, 17, 9}), &rs)
	if p2 != 0x55 || m2 != 0x00FF00 || n != 3 || rs[0] != 3 || rs[1] != 17 || rs[2] != 9 {
		t.Fatalf("pending round trip: %x %x %v", p2, m2, rs[:n])
	}
	pc3, e := unpackCompact(packCompact(0x7, 123456789))
	if pc3 != 0x7 || e != 123456789 {
		t.Fatalf("compact round trip: %x %d", pc3, e)
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

// TestFullFrameBoundaryCoalesces pins the batch-persist idiom of the
// two-copy frame protocol: a boundary persisting several dirty slots
// issues one flush per written word, and the same-frame-line repeats
// coalesce — the boundary's charged write-backs are per line, not per
// slot. The compact flavour already writes one line by construction,
// so its boundary issues exactly one flush.
func TestFullFrameBoundaryCoalesces(t *testing.T) {
	e := newCounterEnv(pmem.Shared, 1, false)
	InstallRun(t, e, 8)
	st := e.rt.Proc(0).Mem().Stats
	if st.CoalescedFlushes == 0 {
		t.Fatalf("full-frame boundaries coalesced nothing: %+v", st)
	}
	if st.EffectiveFlushes() >= st.Flushes {
		t.Fatalf("effective %d >= issued %d", st.EffectiveFlushes(), st.Flushes)
	}

	ec := newCounterEnv(pmem.Shared, 1, true)
	InstallRun(t, ec, 8)
	stc := ec.rt.Proc(0).Mem().Stats
	// Compact boundaries are single-line by design: fewer issued flushes
	// than the full flavour even before coalescing.
	if stc.Flushes >= st.Flushes {
		t.Fatalf("compact issued %d >= full issued %d", stc.Flushes, st.Flushes)
	}
}

// persistCost is what one terminal (or Install) charged the port.
type persistCost struct{ effFlushes, fences uint64 }

func costOf(port *pmem.Port, f func()) persistCost {
	before := port.Stats
	f()
	d := port.Stats.Sub(before)
	return persistCost{d.EffectiveFlushes(), d.Fences}
}

// TestCallReturnCosts pins the live-bit protocol's charged write-backs
// per terminal, for the shape every crash stresser runs: a full-frame
// driver with no dirty slots Calling a compact routine that returns one
// value. Call is {callee line} then {pending|live}; Return is {return
// copies} then {control word, live-bit clear} — and that first fence
// doubles as the one the callee's own unfenced flush needs.
func TestCallReturnCosts(t *testing.T) {
	for _, unfenced := range []bool{false, true} {
		mem := pmem.New(pmem.Config{Words: 1 << 14, Mode: pmem.Shared, Checked: true})
		rt := proc.NewRuntime(mem, 1)
		base := AllocProcAreas(mem, 1)[0]
		cell := mem.AllocLines(1)
		reg := NewRegistry()
		var calls, returns []persistCost
		callee := reg.Register("callee", true, func(c *Ctx) {
			if unfenced {
				c.Mem().Write(cell, c.Local(1))
				c.Mem().Flush(cell)
			}
			returns = append(returns, costOf(c.Mem(), func() { c.Return(c.Local(1) + 1) }))
		})
		main := reg.Register("main", false,
			func(c *Ctx) {
				if c.Local(2) == 3 {
					c.Finish()
					return
				}
				calls = append(calls, costOf(c.Mem(), func() {
					c.Call(callee, 0, 0, []uint64{c.Local(2)}, []int{2})
				}))
			},
		)
		Install(rt.Proc(0).Mem(), base, reg, main)
		rt.RunToCompletion(func(int) proc.Program {
			return func(p *proc.Proc) { NewMachine(p, reg, base).Run() }
		})
		// Steady state: a first Call into a frame may also write its header line.
		for i, want := 1, (persistCost{2, 2}); i < 3; i++ {
			if calls[i] != want || returns[i] != want {
				t.Fatalf("unfenced=%v iteration %d: Call %+v, Return %+v, want %+v each",
					unfenced, i, calls[i], returns[i], want)
			}
		}
	}
}

// TestBoundaryAfterElidedReturnCost pins that a DoneRO return leaves
// nothing behind for the caller: it commits like Return, clearing the
// live bit itself, so the boundary right after it costs what a plain
// one dirtying the same lines costs.
func TestBoundaryAfterElidedReturnCost(t *testing.T) {
	e := newROBase(pmem.Shared, 1)
	lookup := readOnlyOp(e)
	var afterDoneRO, plain persistCost
	e.drv = e.reg.Register("driver", false,
		func(c *Ctx) { c.Call(lookup, 0, 1, []uint64{5}, []int{roDrvRet}) },
		func(c *Ctx) {
			c.SetLocal(roDrvAcc, c.Local(roDrvRet))
			afterDoneRO = costOf(c.Mem(), func() { c.Boundary(2) })
		},
		func(c *Ctx) {
			c.SetLocal(roDrvAcc, c.Local(roDrvAcc)+1)
			plain = costOf(c.Mem(), func() { c.Boundary(3) })
		},
		func(c *Ctx) { c.Finish(c.Local(roDrvAcc)) },
	)
	e.install()
	if rets := e.run(); len(rets) != 1 || rets[0] != 106 {
		t.Fatalf("rets=%v, want [106]", rets)
	}
	if want := (persistCost{2, 2}); afterDoneRO != want || plain != want {
		t.Fatalf("boundary after DoneRO return %+v, plain %+v, want %+v each", afterDoneRO, plain, want)
	}
}

// TestInstallOneFence pins that installing a frame is one fence: there
// is no separate restart word to persist after it.
func TestInstallOneFence(t *testing.T) {
	for _, compact := range []bool{false, true} {
		e := newCounterEnv(pmem.Shared, 1, compact)
		port := e.rt.Proc(0).Mem()
		if got := costOf(port, func() { Install(port, e.base, e.reg, e.main, 1) }); got.fences != 1 {
			t.Fatalf("compact=%v: Install cost %+v, want one fence", compact, got)
		}
		if got := costOf(port, func() { InstallIdle(port, e.base, e.reg, e.main) }); got.fences != 1 {
			t.Fatalf("compact=%v: InstallIdle cost %+v, want one fence", compact, got)
		}
	}
}

// InstallRun installs the counter loop with n iterations and runs it to
// completion, asserting the count is exact.
func InstallRun(t *testing.T, e *counterEnv, n uint64) {
	t.Helper()
	Install(e.rt.Proc(0).Mem(), e.base, e.reg, e.main, n)
	var got []uint64
	e.rt.RunToCompletion(func(int) proc.Program {
		return func(p *proc.Proc) {
			got = NewMachine(p, e.reg, e.base).Run()
		}
	})
	if len(got) != 1 || got[0] != n {
		t.Fatalf("counter: %v, want %d", got, n)
	}
}

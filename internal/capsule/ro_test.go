package capsule

import (
	"fmt"
	"testing"

	"delayfree/internal/pmem"
	"delayfree/internal/proc"
)

// roEnv wires a one-process runtime around a small lookup structure and
// a results array, mirroring the sound read-only-tier pattern the map
// family uses: a pure-read probe capsule ends with an elided boundary,
// and the effectful capsule after it performs only *idempotent* blind
// writes whose target and value are deterministic functions of
// persisted state — so replaying the whole span from the last persisted
// boundary after a crash is exact.
type roEnv struct {
	rt      *proc.Runtime
	reg     *Registry
	drv     RoutineID
	tab     pmem.Addr // 8 static words the probe reads
	results pmem.Addr // one word per driver iteration
	base    pmem.Addr
}

const (
	roDrvIdx = 1 // driver: persisted iteration index
	roDrvAcc = 2 // driver: accumulated callee returns
	roDrvRet = 3 // driver: callee return slot
	roOpArg  = 1 // op: argument (iteration index)
	roOpIdx  = 2 // op: probe result
)

// newROBase builds the environment without a driver: memory, the
// lookup table, the results array and an empty registry.
func newROBase(mode pmem.Mode, seed int64) *roEnv {
	mem := pmem.New(pmem.Config{Words: 1 << 14, Mode: mode, Checked: true, Seed: seed})
	e := &roEnv{rt: proc.NewRuntime(mem, 1)}
	e.tab = mem.AllocLines(1)
	e.results = mem.AllocLines(8)
	e.base = AllocProcAreas(mem, 1)[0]
	e.reg = NewRegistry()
	setup := mem.NewPort()
	for i := uint64(0); i < 8; i++ {
		setup.Write(e.tab+pmem.Addr(i), 100+i)
	}
	setup.FlushRange(e.tab, 8)
	setup.Fence()
	return e
}

// newROEnv builds the environment. op is the routine the driver Calls
// once per iteration with the iteration index as argument, returning
// one value into roDrvRet.
func newROEnv(mode pmem.Mode, seed int64, n uint64, mkOp func(e *roEnv) RoutineID) *roEnv {
	e := newROBase(mode, seed)
	op := mkOp(e)
	e.drv = e.reg.Register("ro-driver", false,
		func(c *Ctx) { // pc0: dispatch
			i := c.Local(roDrvIdx)
			if i >= n {
				c.Finish(c.Local(roDrvAcc))
				return
			}
			c.Call(op, 0, 1, []uint64{i}, []int{roDrvRet})
		},
		func(c *Ctx) { // pc1: account and loop
			c.SetLocal(roDrvAcc, c.Local(roDrvAcc)+c.Local(roDrvRet))
			c.SetLocal(roDrvIdx, c.Local(roDrvIdx)+1)
			c.Boundary(0)
		},
	)
	return e
}

func (e *roEnv) run() []uint64 {
	var rets []uint64
	e.rt.RunToCompletion(func(int) proc.Program {
		return func(p *proc.Proc) {
			rets = NewMachine(p, e.reg, e.base).Run()
		}
	})
	return rets
}

// install writes the driver's initial frame; kept separate from run so
// crash arming never hits the (non-crash-safe) install itself.
func (e *roEnv) install() { Install(e.rt.Proc(0).Mem(), e.base, e.reg, e.drv) }

// probeWriteOp is the pmap-shaped op: a pure-read probe capsule ending
// in BoundaryRO, then an idempotent blind write derived from persisted
// state, returning the probed value.
func probeWriteOp(e *roEnv) RoutineID {
	return e.reg.Register("probe-write", false,
		func(c *Ctx) { // probe: pure reads
			c.ReadOnly()
			i := c.Local(roOpArg)
			c.SetLocal(roOpIdx, c.Mem().Read(e.tab+pmem.Addr(i%8)))
			c.BoundaryRO(1)
		},
		func(c *Ctx) { // write: blind, deterministic from persisted args
			i := c.Local(roOpArg)
			v := c.Local(roOpIdx)
			c.Mem().Write(e.results+pmem.Addr(i), v)
			c.Mem().FlushFence(e.results + pmem.Addr(i))
			c.Return(v)
		},
	)
}

// readOnlyOp is the pure-lookup op: a single declared read-only capsule
// whose Return is elided (DoneRO).
func readOnlyOp(e *roEnv) RoutineID {
	return e.reg.Register("lookup", false,
		func(c *Ctx) {
			c.ReadOnly()
			i := c.Local(roOpArg)
			c.DoneRO(c.Mem().Read(e.tab + pmem.Addr(i%8)))
		},
	)
}

// checkFinal asserts an exact completion: the last program run either
// returned the Finish value, or — when the injected crash landed at or
// after Finish's commit, so the restarted run found PCDone and returned
// nil (the documented Run semantics) — the persisted frame must show
// the completed state with the exact accumulator.
func (e *roEnv) checkFinal(t *testing.T, label string, want uint64, rets []uint64) {
	t.Helper()
	if len(rets) == 1 && rets[0] == want {
		return
	}
	if len(rets) != 0 {
		t.Fatalf("%s: rets=%v, want [%d]", label, rets, want)
	}
	depth, pc, locals := NewMachine(e.rt.Proc(0), e.reg, e.base).LoadState()
	if depth != 0 || pc != PCDone || locals[roDrvAcc] != want {
		t.Fatalf("%s: rets empty and persisted state depth=%d pc=%#x acc=%d, want finished with %d",
			label, depth, pc, locals[roDrvAcc], want)
	}
}

func wantSum(n uint64) uint64 {
	var s uint64
	for i := uint64(0); i < n; i++ {
		s += 100 + i%8
	}
	return s
}

// TestElidedBoundarySoundPattern runs the probe+blind-write op without
// crashes and checks the elision actually fires: the probe boundary and
// nothing else is elided, and results are exact.
func TestElidedBoundarySoundPattern(t *testing.T) {
	const n = 6
	e := newROEnv(pmem.Shared, 1, n, probeWriteOp)
	e.install()
	rets := e.run()
	if len(rets) != 1 || rets[0] != wantSum(n) {
		t.Fatalf("rets=%v, want [%d]", rets, wantSum(n))
	}
	st := e.rt.Proc(0).Mem().Stats
	if st.BoundariesElided != n {
		t.Fatalf("elided %d boundaries, want %d (one probe per op): %+v", st.BoundariesElided, n, st)
	}
	for i := uint64(0); i < n; i++ {
		if got := e.rt.Mem().VisibleWord(e.results + pmem.Addr(i)); got != 100+i%8 {
			t.Fatalf("results[%d]=%d, want %d", i, got, 100+i%8)
		}
	}
}

// TestElidedBoundaryCrashSweep injects a crash at every instrumented
// step of the probe+blind-write run in both memory models and checks
// exactness: a crash inside the effectful capsule must resume from the
// last *persisted* boundary (the Call commit), re-run the read-only
// probe, and repeat the blind write idempotently.
func TestElidedBoundaryCrashSweep(t *testing.T) {
	const n = 4
	for _, mode := range []pmem.Mode{pmem.Private, pmem.Shared} {
		e := newROEnv(mode, 1, n, probeWriteOp)
		e.install()
		e.run()
		total := int64(e.rt.Proc(0).Mem().Stats.Steps)
		if total < 50 {
			t.Fatalf("suspiciously few steps: %d", total)
		}
		for k := int64(1); k <= total; k++ {
			e := newROEnv(mode, k, n, probeWriteOp)
			e.install()
			e.rt.SystemCrashMode = mode == pmem.Shared
			e.rt.Proc(0).ArmCrashAfter(k)
			rets := e.run()
			e.checkFinal(t, fmt.Sprintf("mode=%v crash@%d", mode, k), wantSum(n), rets)
			for i := uint64(0); i < n; i++ {
				if got := e.rt.Mem().VisibleWord(e.results + pmem.Addr(i)); got != 100+i%8 {
					t.Fatalf("mode=%v crash@%d: results[%d]=%d, want %d", mode, k, i, got, 100+i%8)
				}
			}
		}
	}
}

// TestElidedReturnCrashSweep sweeps crashes over the pure-lookup op:
// DoneRO elides the whole Return commit, so the driver's accounting
// boundary both persists the delivered value and clears the driver's
// live bit. Exactness across every crash point pins the deferred clear
// (the Call-straight-after-an-elided-return path has its own sweep,
// TestCallAfterElidedReturnCrashSweep).
func TestElidedReturnCrashSweep(t *testing.T) {
	const n = 4
	for _, mode := range []pmem.Mode{pmem.Private, pmem.Shared} {
		e := newROEnv(mode, 1, n, readOnlyOp)
		e.install()
		rets := e.run()
		if len(rets) != 1 || rets[0] != wantSum(n) {
			t.Fatalf("mode=%v: rets=%v, want [%d]", mode, rets, wantSum(n))
		}
		st := e.rt.Proc(0).Mem().Stats
		if st.BoundariesElided < n {
			t.Fatalf("mode=%v: only %d elided terminals, want >= %d", mode, st.BoundariesElided, n)
		}
		total := int64(e.rt.Proc(0).Mem().Stats.Steps)
		for k := int64(1); k <= total; k++ {
			e := newROEnv(mode, k, n, readOnlyOp)
			e.install()
			e.rt.SystemCrashMode = mode == pmem.Shared
			e.rt.Proc(0).ArmCrashAfter(k)
			rets := e.run()
			e.checkFinal(t, fmt.Sprintf("mode=%v crash@%d", mode, k), wantSum(n), rets)
		}
	}
}

// TestCallROCrashSweep drives the lookup through CallRO: the call is
// fully volatile, so a crash anywhere inside the callee resumes the
// caller's last persisted boundary and re-runs the span.
func TestCallROCrashSweep(t *testing.T) {
	const n = 4
	mk := func(mode pmem.Mode, seed int64) *roEnv {
		mem := pmem.New(pmem.Config{Words: 1 << 14, Mode: mode, Checked: true, Seed: seed})
		e := &roEnv{rt: proc.NewRuntime(mem, 1)}
		e.tab = mem.AllocLines(1)
		e.base = AllocProcAreas(mem, 1)[0]
		e.reg = NewRegistry()
		setup := mem.NewPort()
		for i := uint64(0); i < 8; i++ {
			setup.Write(e.tab+pmem.Addr(i), 100+i)
		}
		setup.FlushRange(e.tab, 8)
		setup.Fence()
		op := readOnlyOp(e)
		e.drv = e.reg.Register("ro-call-driver", false,
			func(c *Ctx) { // pc0: dispatch through the volatile call
				i := c.Local(roDrvIdx)
				if i >= n {
					c.Finish(c.Local(roDrvAcc))
					return
				}
				c.CallRO(op, 0, 1, []uint64{i}, []int{roDrvRet})
			},
			func(c *Ctx) { // pc1: account and loop
				c.SetLocal(roDrvAcc, c.Local(roDrvAcc)+c.Local(roDrvRet))
				c.SetLocal(roDrvIdx, c.Local(roDrvIdx)+1)
				c.Boundary(0)
			},
		)
		return e
	}
	for _, mode := range []pmem.Mode{pmem.Private, pmem.Shared} {
		e := mk(mode, 1)
		e.install()
		rets := e.run()
		if len(rets) != 1 || rets[0] != wantSum(n) {
			t.Fatalf("mode=%v: rets=%v, want [%d]", mode, rets, wantSum(n))
		}
		total := int64(e.rt.Proc(0).Mem().Stats.Steps)
		for k := int64(1); k <= total; k++ {
			e := mk(mode, k)
			e.install()
			e.rt.SystemCrashMode = mode == pmem.Shared
			e.rt.Proc(0).ArmCrashAfter(k)
			rets := e.run()
			e.checkFinal(t, fmt.Sprintf("mode=%v crash@%d", mode, k), wantSum(n), rets)
		}
	}
}

// TestElidedBoundaryResumesFromPersisted pins the core recovery
// semantics directly: after an elided boundary, a crash resumes from
// the last *persisted* boundary (re-running the read-only capsule), and
// the crashed flag stays visible across the elided span so effectful
// successors still see Crashed()==true on repetition.
func TestElidedBoundaryResumesFromPersisted(t *testing.T) {
	mem := pmem.New(pmem.Config{Words: 1 << 14, Mode: pmem.Private, Checked: true})
	rt := proc.NewRuntime(mem, 1)
	base := AllocProcAreas(mem, 1)[0]
	cell := mem.AllocLines(1)
	reg := NewRegistry()
	var p0Runs, p1Runs int
	var p1Crashed []bool
	main := reg.Register("elide-then-crash", false,
		func(c *Ctx) { // pc0: read-only; elided boundary
			p0Runs++
			c.SetLocal(2, c.Mem().Read(cell))
			c.BoundaryRO(1)
		},
		func(c *Ctx) { // pc1: effectful; crashes once mid-capsule
			p1Runs++
			p1Crashed = append(p1Crashed, c.Crashed())
			if p1Runs == 1 {
				c.P().CrashNow()
			}
			c.Mem().Write(cell, 7) // blind: repetition-safe
			c.Mem().FlushFence(cell)
			c.Finish()
		},
	)
	Install(rt.Proc(0).Mem(), base, reg, main)
	rt.RunToCompletion(func(int) proc.Program {
		return func(p *proc.Proc) { NewMachine(p, reg, base).Run() }
	})
	if p0Runs != 2 {
		t.Fatalf("read-only capsule ran %d times, want 2 (crash must rewind past the elided boundary)", p0Runs)
	}
	if len(p1Crashed) != 2 || p1Crashed[0] || !p1Crashed[1] {
		t.Fatalf("crashed flags %v, want [false true] (sticky across the elided boundary)", p1Crashed)
	}
	if got := mem.VisibleWord(cell); got != 7 {
		t.Fatalf("cell=%d, want 7", got)
	}
}

// TestBoundaryROPersistsWhenDirty checks the fallback: a span with
// persistent effects persists its boundary exactly like Boundary, and a
// crash resumes at the committed pc.
func TestBoundaryROPersistsWhenDirty(t *testing.T) {
	mem := pmem.New(pmem.Config{Words: 1 << 14, Mode: pmem.Private, Checked: true})
	rt := proc.NewRuntime(mem, 1)
	base := AllocProcAreas(mem, 1)[0]
	cell := mem.AllocLines(1)
	reg := NewRegistry()
	main := reg.Register("dirty-ro", false,
		func(c *Ctx) { // pc0: effectful, then BoundaryRO -> must persist
			c.Mem().Write(cell, 1)
			c.Mem().FlushFence(cell)
			c.BoundaryRO(1)
		},
		func(c *Ctx) { c.Finish() },
	)
	Install(rt.Proc(0).Mem(), base, reg, main)
	rt.RunToCompletion(func(int) proc.Program {
		return func(p *proc.Proc) { NewMachine(p, reg, base).Run() }
	})
	st := rt.Proc(0).Mem().Stats
	if st.BoundariesElided != 0 {
		t.Fatalf("dirty span elided %d boundaries, want 0", st.BoundariesElided)
	}
	if st.Boundaries < 2 { // pc0's boundary + Finish
		t.Fatalf("boundaries=%d, want >= 2", st.Boundaries)
	}
}

// TestReadOnlyViolationPanics pins the checked-mode guard: a persistent
// write inside a declared read-only capsule panics at the terminal.
func TestReadOnlyViolationPanics(t *testing.T) {
	mem := pmem.New(pmem.Config{Words: 1 << 14, Mode: pmem.Shared, Checked: true})
	rt := proc.NewRuntime(mem, 1)
	base := AllocProcAreas(mem, 1)[0]
	cell := mem.AllocLines(1)
	reg := NewRegistry()
	main := reg.Register("bad-ro", false,
		func(c *Ctx) {
			c.ReadOnly()
			c.Mem().Write(cell, 1)
			c.BoundaryRO(1)
		},
		func(c *Ctx) { c.Finish() },
	)
	Install(rt.Proc(0).Mem(), base, reg, main)
	mustPanic(t, "write in declared read-only capsule", func() {
		NewMachine(rt.Proc(0), reg, base).Run()
	})
}

// TestCallROEffectPanics pins the companion guard on volatile calls: a
// callee reached through CallRO must stay effect-free through its
// Return.
func TestCallROEffectPanics(t *testing.T) {
	mem := pmem.New(pmem.Config{Words: 1 << 14, Mode: pmem.Shared, Checked: true})
	rt := proc.NewRuntime(mem, 1)
	base := AllocProcAreas(mem, 1)[0]
	cell := mem.AllocLines(1)
	reg := NewRegistry()
	callee := reg.Register("effectful", false,
		func(c *Ctx) {
			c.Mem().Write(cell, 1)
			c.Return(0)
		},
	)
	main := reg.Register("bad-caller", false,
		func(c *Ctx) { c.CallRO(callee, 0, 1, nil, []int{2}) },
		func(c *Ctx) { c.Finish() },
	)
	Install(rt.Proc(0).Mem(), base, reg, main)
	mustPanic(t, "effect inside read-only call", func() {
		NewMachine(rt.Proc(0), reg, base).Run()
	})
}

// TestBoundaryHotPathAllocs pins zero allocations per operation on the
// boundary hot path (frame writes, batch flush scratch, light Invoke),
// in the fast shared mode benchmarks run in.
func TestBoundaryHotPathAllocs(t *testing.T) {
	mem := pmem.New(pmem.Config{Words: 1 << 16, Mode: pmem.Shared})
	rt := proc.NewRuntime(mem, 1)
	base := AllocProcAreas(mem, 1)[0]
	reg := NewRegistry()
	spin := reg.Register("spin", false,
		func(c *Ctx) { // pc0
			n := c.Local(1)
			if n == 0 {
				c.Finish()
				return
			}
			c.SetLocal(1, n-1)
			c.SetLocal(2, c.Local(2)+n)
			c.SetLocal(3, n)
			c.Boundary(0)
		},
	)
	InstallIdle(rt.Proc(0).Mem(), base, reg, spin)
	var mach *Machine
	rt.RunToCompletion(func(int) proc.Program {
		return func(p *proc.Proc) {
			mach = NewMachine(p, reg, base)
			mach.Invoke(spin, 0, 8) // warm up flushBuf and frame state
			allocs := testing.AllocsPerRun(50, func() {
				mach.Invoke(spin, 0, 64)
			})
			if allocs != 0 {
				t.Errorf("boundary hot path allocates %.1f allocs per 64-boundary op, want 0", allocs)
			}
		}
	})
}

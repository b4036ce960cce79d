package pstack

import (
	"fmt"
	"runtime"
	"testing"

	"delayfree/internal/capsule"
	"delayfree/internal/pmem"
	"delayfree/internal/proc"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
	"delayfree/internal/workload"
)

type env struct {
	rt    *proc.Runtime
	reg   *capsule.Registry
	s     *Stack
	bases []pmem.Addr
}

func newEnv(t testing.TB, P int, mode pmem.Mode, seed int64, opt, durable bool) *env {
	t.Helper()
	return newSeededEnv(t, P, mode, seed, opt, durable, 0)
}

// newSeededEnv is newEnv with the first `reserved` arena nodes kept out
// of the allocators, for Seed.
func newSeededEnv(t testing.TB, P int, mode pmem.Mode, seed int64, opt, durable bool, reserved uint32) *env {
	t.Helper()
	mem := pmem.New(pmem.Config{Words: 1 << 20, Mode: mode, Checked: true, Seed: seed})
	rt := proc.NewRuntime(mem, P)
	rt.SystemCrashMode = mode == pmem.Shared
	arena := qnode.NewArena(mem, 1<<14)
	e := &env{rt: rt}
	e.s = New(Config{
		Mem:     mem,
		Space:   rcas.NewSpace(mem, P),
		Arena:   arena,
		P:       P,
		Durable: durable,
		Opt:     opt,
	})
	e.reg = capsule.NewRegistry()
	e.s.Register(e.reg)
	e.bases = capsule.AllocProcAreas(mem, P)
	e.s.Init(rt.Proc(0).Mem(), reserved)
	return e
}

// pairEnv is the stack's pair round (workload.PairStress) built by hand
// so a test can drive the processes itself: P processes with the pair
// driver installed for `pairs` pairs, not yet running. opt and durable
// pick the stack's frames and protocol; mode picks the memory model,
// shared with full-system crashes.
type pairEnv struct {
	r *workload.Round
	h workload.Hooks
}

func newPairEnv(t testing.TB, P, pairs int, mode pmem.Mode, seed int64, opt, durable bool) *pairEnv {
	t.Helper()
	spec := stressSpec(func(cfg Config) *Stack {
		cfg.Opt, cfg.Durable = opt, durable
		return New(cfg)
	})
	r := &workload.Round{
		StressConfig: workload.StressConfig{Procs: P, Ops: pairs, Seed: seed, Shared: mode == pmem.Shared},
		N:            P,
		Reg:          capsule.NewRegistry(),
	}
	r.Mem = pmem.New(pmem.Config{Words: spec.Words(r) + uint64(P)*capsule.ProcWords, Mode: mode, Checked: true, Seed: seed})
	r.RT = proc.NewRuntime(r.Mem, P)
	r.RT.SystemCrashMode = mode == pmem.Shared
	return &pairEnv{r: r, h: spec.Build(r)}
}

// runAll runs every process to completion.
func (pe *pairEnv) runAll() {
	pe.r.RT.RunToCompletion(func(i int) proc.Program {
		return func(*proc.Proc) { pe.r.Machine(i).Run() }
	})
}

// run runs every process to completion and checks the outcome.
func (pe *pairEnv) run() error {
	pe.runAll()
	return pe.check()
}

// check disarms every process, crashes the system so that only durable
// state counts, and applies the pair round's conservation check to the
// recovered stack and the persisted driver accounting.
func (pe *pairEnv) check() error {
	locals := make([][]uint64, pe.r.N)
	for i := range locals {
		pe.r.RT.Proc(i).Disarm()
	}
	pe.r.RT.CrashSystem()
	for i := range locals {
		depth, pc, l := pe.r.Machine(i).LoadState()
		if depth != 0 || pc != capsule.PCDone {
			return fmt.Errorf("proc %d did not finish: depth=%d pc=%d", i, depth, pc)
		}
		locals[i] = l
	}
	return pe.h.Check(pe.h.Final(), locals, &workload.StressReport{})
}

func TestLIFOSequential(t *testing.T) {
	for _, opt := range []bool{false, true} {
		e := newEnv(t, 1, pmem.Private, 1, opt, false)
		m := capsule.NewMachine(e.rt.Proc(0), e.reg, e.bases[0])
		capsule.InstallIdle(e.rt.Proc(0).Mem(), e.bases[0], e.reg, e.s.Routine())
		e.rt.RunToCompletion(func(int) proc.Program {
			return func(p *proc.Proc) {
				for v := uint64(1); v <= 20; v++ {
					m.Invoke(e.s.Routine(), e.s.PushEntry(), v*7)
				}
				for v := uint64(20); v >= 1; v-- {
					r := m.Invoke(e.s.Routine(), e.s.PopEntry())
					if r[0] != 1 || r[1] != v*7 {
						t.Errorf("pop: got %v, want (1,%d)", r, v*7)
						return
					}
				}
				if r := m.Invoke(e.s.Routine(), e.s.PopEntry()); r[0] != 0 {
					t.Errorf("empty pop: %v", r)
				}
			}
		})
		if got := e.s.Len(e.rt.Proc(0).Mem()); got != 0 {
			t.Fatalf("opt=%v: leftover %d", opt, got)
		}
	}
}

func TestConcurrentPairs(t *testing.T) {
	if err := newPairEnv(t, 4, 50, pmem.Private, 1, false, false).run(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashSweep injects a crash at every instruction of a run, both
// models, both frame flavours.
func TestCrashSweep(t *testing.T) {
	const pairs = 3
	for _, mode := range []pmem.Mode{pmem.Private, pmem.Shared} {
		for _, opt := range []bool{false, true} {
			pe := newPairEnv(t, 1, pairs, mode, 1, opt, mode == pmem.Shared)
			port := pe.r.RT.Proc(0).Mem()
			start := port.Stats.Steps
			pe.runAll()
			total := int64(port.Stats.Steps - start)
			if err := pe.check(); err != nil {
				t.Fatalf("mode=%v opt=%v crash-free: %v", mode, opt, err)
			}
			stride := int64(1)
			if testing.Short() {
				stride = 5
			}
			for k := int64(1); k <= total; k += stride {
				pe := newPairEnv(t, 1, pairs, mode, k, opt, mode == pmem.Shared)
				pe.r.RT.Proc(0).ArmCrashAfter(k)
				if err := pe.run(); err != nil {
					t.Fatalf("mode=%v opt=%v crash@%d: %v", mode, opt, k, err)
				}
				if r := pe.r.RT.Proc(0).Restarts(); r != 1 {
					t.Fatalf("mode=%v opt=%v crash@%d: %d restarts, want 1", mode, opt, k, r)
				}
			}
		}
	}
}

// TestConcurrentCrashStorm: randomized independent crashes, private
// model, value conservation.
func TestConcurrentCrashStorm(t *testing.T) {
	const P, pairs = 3, 12
	for seed := int64(1); seed <= 3; seed++ {
		pe := newPairEnv(t, P, pairs, pmem.Private, seed, true, false)
		for i := 0; i < P; i++ {
			pe.r.RT.Proc(i).AutoCrash(seed*17+int64(i), 150, 1500)
		}
		if err := pe.run(); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

// TestStressDriverDisabledRecorderAllocs extends the capsule
// TestBoundaryHotPathAllocs pin through the pair round's driver: with the
// history recorder disabled (nil), a run of push-pop pairs through the
// capsule machine must allocate exactly what a recorder-free twin driver
// allocates — the audit instrumentation adds zero allocations when off,
// as it is in every hand-built round (crash sweeps, the recovery probe).
// (The shared baseline is ~1 alloc/pair from the Call args/ret slices,
// which predates and is independent of the recorder.)
func TestStressDriverDisabledRecorderAllocs(t *testing.T) {
	const pairs = 64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs := func(m *capsule.Machine) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.Run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	withRec := mallocs(newPairEnv(t, 1, pairs, pmem.Private, 1, false, false).r.Machine(0)) // nil recorder: hand-built round
	// Twin of the pair driver with the recorder lines deleted.
	e := newEnv(t, 1, pmem.Private, 1, false, false)
	drv := e.reg.Register("pair-driver-norec", false,
		func(c *capsule.Ctx) {
			if c.Local(1) >= pairs {
				c.Finish()
				return
			}
			c.Call(e.s.Routine(), e.s.PushEntry(), 1, []uint64{uint64(c.P().ID())<<40 | c.Local(1)}, nil)
		},
		func(c *capsule.Ctx) {
			c.Call(e.s.Routine(), e.s.PopEntry(), 2, nil, []int{2, 3})
		},
		func(c *capsule.Ctx) {
			if c.Local(2) != 0 {
				c.SetLocal(4, c.Local(4)+c.Local(3))
			} else {
				c.SetLocal(5, c.Local(5)+1)
			}
			c.SetLocal(1, c.Local(1)+1)
			c.Boundary(0)
		},
	)
	capsule.Install(e.rt.Proc(0).Mem(), e.bases[0], e.reg, drv)
	twin := mallocs(capsule.NewMachine(e.rt.Proc(0), e.reg, e.bases[0]))
	if withRec > twin {
		t.Errorf("disabled recorder adds %d allocs over %d pairs beyond the recorder-free twin (%d vs %d), want 0 extra",
			withRec-twin, pairs, withRec, twin)
	}
}

package pstack

import (
	"testing"

	"delayfree/internal/capsule"
	"delayfree/internal/pmem"
	"delayfree/internal/proc"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
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

// driver: `n` push-pop pairs, accumulating popped values in slot 5.
func registerDriver(e *env) capsule.RoutineID {
	return e.reg.Register("stack-driver", false,
		func(c *capsule.Ctx) { // pc0
			if c.Local(1) == 0 {
				c.Finish(c.Local(5))
				return
			}
			v := uint64(c.P().ID())<<40 | c.Local(2)
			c.SetLocal(2, c.Local(2)+1)
			c.Call(e.s.Routine(), e.s.PushEntry(), 1, []uint64{v}, nil)
		},
		func(c *capsule.Ctx) { // pc1
			c.Call(e.s.Routine(), e.s.PopEntry(), 2, nil, []int{3, 4})
		},
		func(c *capsule.Ctx) { // pc2
			c.SetLocal(1, c.Local(1)-1)
			c.SetLocal(5, c.Local(5)+c.Local(4))
			c.Boundary(0)
		},
	)
}

func sink(e *env, i int) uint64 {
	e.rt.Proc(i).Disarm()
	m := capsule.NewMachine(e.rt.Proc(i), e.reg, e.bases[i])
	_, pc, locals := m.LoadState()
	if pc != capsule.PCDone {
		panic("driver not finished")
	}
	return locals[5]
}

func wantSink(pid int, pairs uint64) uint64 {
	w := uint64(0)
	for k := uint64(0); k < pairs; k++ {
		w += uint64(pid)<<40 | k
	}
	return w
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
	const P, pairs = 4, 50
	e := newEnv(t, P, pmem.Private, 1, false, false)
	drv := registerDriver(e)
	for i := 0; i < P; i++ {
		capsule.Install(e.rt.Proc(i).Mem(), e.bases[i], e.reg, drv, pairs)
	}
	e.rt.RunToCompletion(func(i int) proc.Program {
		return func(p *proc.Proc) {
			capsule.NewMachine(p, e.reg, e.bases[i]).Run()
		}
	})
	var got, want uint64
	for i := 0; i < P; i++ {
		got += sink(e, i)
		want += wantSink(i, pairs)
	}
	if got != want {
		t.Fatalf("sink total %d, want %d", got, want)
	}
	if n := e.s.Len(e.rt.Proc(0).Mem()); n != 0 {
		t.Fatalf("leftover %d", n)
	}
}

// TestCrashSweep injects a crash at every instruction of a run, both
// models, both frame flavours.
func TestCrashSweep(t *testing.T) {
	const pairs = 3
	for _, mode := range []pmem.Mode{pmem.Private, pmem.Shared} {
		for _, opt := range []bool{false, true} {
			e := newEnv(t, 1, mode, 1, opt, mode == pmem.Shared)
			drv := registerDriver(e)
			capsule.Install(e.rt.Proc(0).Mem(), e.bases[0], e.reg, drv, pairs)
			e.rt.RunToCompletion(func(i int) proc.Program {
				return func(p *proc.Proc) {
					capsule.NewMachine(p, e.reg, e.bases[i]).Run()
				}
			})
			total := int64(e.rt.Proc(0).Mem().Stats.Steps)
			want := wantSink(0, pairs)
			stride := int64(1)
			if testing.Short() {
				stride = 5
			}
			for k := int64(1); k <= total; k += stride {
				e := newEnv(t, 1, mode, k, opt, mode == pmem.Shared)
				drv := registerDriver(e)
				capsule.Install(e.rt.Proc(0).Mem(), e.bases[0], e.reg, drv, pairs)
				e.rt.Proc(0).ArmCrashAfter(k)
				e.rt.RunToCompletion(func(i int) proc.Program {
					return func(p *proc.Proc) {
						capsule.NewMachine(p, e.reg, e.bases[i]).Run()
					}
				})
				// The outcome must be durable, not only visible.
				e.rt.Proc(0).Disarm()
				e.rt.CrashSystem()
				if got := sink(e, 0); got != want {
					t.Fatalf("mode=%v opt=%v crash@%d: sink=%d want %d", mode, opt, k, got, want)
				}
				if n := e.s.Len(e.rt.Proc(0).Mem()); n != 0 {
					t.Fatalf("mode=%v opt=%v crash@%d: leftover %d", mode, opt, k, n)
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
		e := newEnv(t, P, pmem.Private, seed, true, false)
		drv := registerDriver(e)
		for i := 0; i < P; i++ {
			capsule.Install(e.rt.Proc(i).Mem(), e.bases[i], e.reg, drv, pairs)
			e.rt.Proc(i).AutoCrash(seed*17+int64(i), 150, 1500)
		}
		e.rt.RunToCompletion(func(i int) proc.Program {
			return func(p *proc.Proc) {
				capsule.NewMachine(p, e.reg, e.bases[i]).Run()
			}
		})
		var got, want uint64
		for i := 0; i < P; i++ {
			got += sink(e, i)
			want += wantSink(i, pairs)
		}
		if got != want {
			t.Fatalf("seed=%d: sink %d, want %d", seed, got, want)
		}
		if n := e.s.Len(e.rt.Proc(0).Mem()); n != 0 {
			t.Fatalf("seed=%d: leftover %d", seed, n)
		}
	}
}

// TestStressDriverDisabledRecorderAllocs extends the capsule
// TestBoundaryHotPathAllocs pin through the stress driver: with the
// history recorder disabled (nil), a full push-pop pair batch through
// the capsule machine must allocate exactly what a recorder-free twin
// driver allocates — the audit instrumentation adds zero allocations
// when off, since every non-audited stress round and benchmark runs
// through this exact path. (The shared baseline is ~1 alloc/pair from
// the Call args/ret slices, which predates and is independent of the
// recorder.)
func TestStressDriverDisabledRecorderAllocs(t *testing.T) {
	const pairs = 8
	measure := func(mk func(e *env) capsule.RoutineID) float64 {
		e := newEnv(t, 1, pmem.Private, 1, false, false)
		drv := mk(e)
		capsule.InstallIdle(e.rt.Proc(0).Mem(), e.bases[0], e.reg, drv)
		var allocs float64
		e.rt.RunToCompletion(func(int) proc.Program {
			return func(p *proc.Proc) {
				mach := capsule.NewMachine(p, e.reg, e.bases[0])
				mach.Invoke(drv, 0) // warm up flushBuf and frame state
				allocs = testing.AllocsPerRun(20, func() {
					mach.Invoke(drv, 0)
				})
			}
		})
		return allocs
	}
	withRec := measure(func(e *env) capsule.RoutineID {
		return RegisterStressDriver(e.reg, e.s, pairs, nil, nil) // nil = audit off
	})
	// Twin of RegisterStressDriver with the recorder lines deleted.
	twin := measure(func(e *env) capsule.RoutineID {
		return e.reg.Register("pstack-stress-driver-norec", false,
			func(c *capsule.Ctx) {
				if c.Local(sdIdx) >= pairs {
					c.Finish()
					return
				}
				c.Call(e.s.Routine(), e.s.PushEntry(), 1, []uint64{valueTag(c.P().ID(), c.Local(sdIdx))}, nil)
			},
			func(c *capsule.Ctx) {
				c.Call(e.s.Routine(), e.s.PopEntry(), 2, nil, []int{sdPopOK, sdPopV})
			},
			func(c *capsule.Ctx) {
				if c.Local(sdPopOK) != 0 {
					c.SetLocal(sdSum, c.Local(sdSum)+c.Local(sdPopV))
					c.SetLocal(sdPops, c.Local(sdPops)+1)
				} else {
					c.SetLocal(sdEmpty, c.Local(sdEmpty)+1)
				}
				c.SetLocal(sdIdx, c.Local(sdIdx)+1)
				c.Boundary(0)
			},
		)
	})
	if withRec > twin {
		t.Errorf("disabled recorder adds %.1f allocs per %d-pair batch over the recorder-free twin (%.1f vs %.1f), want 0 extra",
			withRec-twin, pairs, withRec, twin)
	}
}

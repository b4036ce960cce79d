package pqueue

import (
	"fmt"
	"testing"

	"delayfree/internal/capsule"
	"delayfree/internal/pmem"
	"delayfree/internal/proc"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
	"delayfree/internal/workload"
)

// env bundles a runtime, a queue variant and its registry.
type env struct {
	rt    *proc.Runtime
	reg   *capsule.Registry
	q     Queue
	bases []pmem.Addr
	arena *qnode.Arena
}

type variant struct {
	name string
	mk   func(cfg Config) Queue
}

var variants = []variant{
	{"general", func(cfg Config) Queue { return NewGeneral(cfg) }},
	{"general-opt", func(cfg Config) Queue { cfg.Opt = true; return NewGeneral(cfg) }},
	{"normalized", func(cfg Config) Queue { return NewNormalized(cfg) }},
	{"normalized-opt", func(cfg Config) Queue { cfg.Opt = true; return NewNormalized(cfg) }},
}

// durability configurations exercised by the crash tests.
type durCfg struct {
	name     string
	mode     pmem.Mode
	auto     bool // Izraelevitz construction
	manual   bool // hand-placed flushes
	sysCrash bool
}

var durCfgs = []durCfg{
	{name: "private", mode: pmem.Private},
	{name: "izraelevitz", mode: pmem.Shared, auto: true, sysCrash: true},
	{name: "manual", mode: pmem.Shared, manual: true, sysCrash: true},
}

func newEnv(t testing.TB, v variant, d durCfg, P int, nodes uint32, seed int64) *env {
	t.Helper()
	mem := pmem.New(pmem.Config{
		Words:   uint64(nodes+4096) * pmem.WordsPerLine * 2,
		Mode:    d.mode,
		Checked: true,
		Seed:    seed,
	})
	rt := proc.NewRuntime(mem, P)
	rt.SystemCrashMode = d.sysCrash
	if d.auto {
		for i := 0; i < P; i++ {
			rt.Proc(i).Mem().Auto = true
		}
	}
	e := &env{rt: rt, arena: qnode.NewArena(mem, nodes)}
	e.q = v.mk(Config{
		Mem:     mem,
		Space:   rcas.NewSpace(mem, P),
		Arena:   e.arena,
		P:       P,
		Durable: d.manual,
	})
	e.reg = capsule.NewRegistry()
	e.q.Register(e.reg)
	e.bases = capsule.AllocProcAreas(mem, P)
	e.q.Init(rt.Proc(0).Mem(), DummyNode)
	return e
}

// runDriver installs drv with args on every process and runs them all
// to completion.
func (e *env) runDriver(drv capsule.RoutineID, args ...uint64) {
	for i := 0; i < e.rt.P(); i++ {
		capsule.Install(e.rt.Proc(i).Mem(), e.bases[i], e.reg, drv, args...)
	}
	e.rt.RunToCompletion(func(i int) proc.Program {
		return func(p *proc.Proc) { capsule.NewMachine(p, e.reg, e.bases[i]).Run() }
	})
}

// pairEnv is the package's pair round (workload.PairStress) over
// variant v in durability configuration d, built by hand so a test can
// drive the processes itself: P processes with the pair driver
// installed for `pairs` pairs, not yet running.
type pairEnv struct {
	r *workload.Round
	h workload.Hooks
	q Queue
}

// newPairEnv builds the round; space, if non-nil, wraps the queue's CAS
// space.
func newPairEnv(t testing.TB, v variant, d durCfg, P, pairs int, seed int64, space func(rcas.CasSpace) rcas.CasSpace) *pairEnv {
	t.Helper()
	pe := &pairEnv{}
	spec := stressSpec(v.name, func(cfg Config) Queue {
		cfg.Durable = d.manual
		if space != nil {
			cfg.Space = space(cfg.Space)
		}
		pe.q = v.mk(cfg)
		return pe.q
	})
	r := &workload.Round{
		StressConfig: workload.StressConfig{Procs: P, Ops: pairs, Seed: seed, Shared: d.mode == pmem.Shared},
		N:            P,
		Reg:          capsule.NewRegistry(),
	}
	r.Mem = pmem.New(pmem.Config{Words: spec.Words(r) + uint64(P)*capsule.ProcWords, Mode: d.mode, Checked: true, Seed: seed})
	r.RT = proc.NewRuntime(r.Mem, P)
	r.RT.SystemCrashMode = d.sysCrash
	for i := 0; i < P; i++ {
		r.RT.Proc(i).Mem().Auto = d.auto
	}
	pe.r, pe.h = r, spec.Build(r)
	return pe
}

// prog is process i's program: its machine over the pair driver.
func (pe *pairEnv) prog(i int) proc.Program {
	return func(*proc.Proc) { pe.r.Machine(i).Run() }
}

// run runs every process to completion and checks the outcome.
func (pe *pairEnv) run() error {
	pe.r.RT.RunToCompletion(pe.prog)
	return pe.check()
}

// check disarms every process, crashes the system so that only durable
// state counts, and applies the pair round's conservation check to the
// recovered queue and the persisted driver accounting.
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

func TestSequentialPairs(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			if err := newPairEnv(t, v, durCfgs[0], 1, 40, 1, nil).run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSequentialFIFOOrder(t *testing.T) {
	// Enqueue k values then dequeue them all: strict FIFO expected.
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			e := newEnv(t, v, durCfgs[0], 1, 256, 1)
			logs := []*opLog{{}}
			// Custom driver: all enqueues then all dequeues.
			drv := e.reg.Register("fifo-driver", false,
				func(c *capsule.Ctx) { // pc0: enqueue phase
					if c.Local(1) == 0 {
						c.Boundary(2)
						return
					}
					c.SetLocal(1, c.Local(1)-1)
					c.Call(e.q.EnqRoutine(), e.q.EnqEntry(), 1, []uint64{100 + c.Local(1)}, nil)
				},
				func(c *capsule.Ctx) { c.Boundary(0) }, // pc1
				func(c *capsule.Ctx) { // pc2: dequeue phase
					c.Call(e.q.DeqRoutine(), e.q.DeqEntry(), 3, nil, []int{3, 4})
				},
				func(c *capsule.Ctx) { // pc3
					if c.Local(3) == 0 {
						c.Finish()
						return
					}
					logs[0].Dequeued = append(logs[0].Dequeued, c.Local(4))
					c.Boundary(2)
				},
			)
			const k = 20
			e.runDriver(drv, k)
			if len(logs[0].Dequeued) != k {
				t.Fatalf("dequeued %d values", len(logs[0].Dequeued))
			}
			for i, got := range logs[0].Dequeued {
				want := uint64(100 + k - 1 - i)
				if got != want {
					t.Fatalf("position %d: got %d, want %d", i, got, want)
				}
			}
		})
	}
}

func TestEmptyDequeue(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			e := newEnv(t, v, durCfgs[0], 1, 64, 1)
			drv := e.reg.Register("empty-driver", false,
				func(c *capsule.Ctx) {
					c.Call(e.q.DeqRoutine(), e.q.DeqEntry(), 1, nil, []int{1, 2})
				},
				func(c *capsule.Ctx) {
					c.Finish(c.Local(1), c.Local(2))
				},
			)
			capsule.Install(e.rt.Proc(0).Mem(), e.bases[0], e.reg, drv)
			var rets []uint64
			e.rt.RunToCompletion(func(i int) proc.Program {
				return func(p *proc.Proc) {
					rets = capsule.NewMachine(p, e.reg, e.bases[i]).Run()
				}
			})
			if len(rets) != 2 || rets[0] != 0 {
				t.Fatalf("dequeue on empty: %v", rets)
			}
		})
	}
}

func TestSeedAndDrain(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			e := newEnv(t, v, durCfgs[0], 1, 256, 1)
			port := e.rt.Proc(0).Mem()
			e.q.Seed(port, DummyNode+1, 30, func(i uint32) uint64 { return uint64(i) * 3 })
			if got := e.q.Len(port); got != 30 {
				t.Fatalf("len=%d", got)
			}
			vals := e.q.Drain(port)
			for i, got := range vals {
				if got != uint64(i)*3 {
					t.Fatalf("drain[%d]=%d", i, got)
				}
			}
		})
	}
}

// TestConcurrentPairsAllVariants runs the paper's workload with P
// processes and validates exactness from the logs plus final state.
func TestConcurrentPairsAllVariants(t *testing.T) {
	const P, pairs = 4, 60
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			e := newEnv(t, v, durCfgs[0], P, 4096, 1)
			logs := make([]*opLog, P)
			for i := range logs {
				logs[i] = &opLog{}
			}
			e.runDriver(registerLoggingDriver(e.reg, e.q, logs), pairs)

			port := e.rt.Proc(0).Mem()
			remaining := e.q.Drain(port)
			checkExactness(t, logs, remaining, P, pairs)
		})
	}
}

// opLog records one process's completed operations.
type opLog struct {
	Enqueued []uint64
	Dequeued []uint64
	Empties  int
}

// registerLoggingDriver registers a depth-0 routine running `remaining`
// (slot 1) enqueue-dequeue pairs with values pid<<40|counter, recording
// every completed operation in logs[pid]. The log is the volatile view,
// exact only in crash-free runs.
func registerLoggingDriver(reg *capsule.Registry, q Queue, logs []*opLog) capsule.RoutineID {
	return reg.Register("logging-driver", false,
		func(c *capsule.Ctx) { // pc0
			if c.Local(1) == 0 {
				c.Finish()
				return
			}
			v := uint64(c.P().ID())<<40 | c.Local(2)
			c.SetLocal(2, c.Local(2)+1)
			c.Call(q.EnqRoutine(), q.EnqEntry(), 1, []uint64{v}, nil)
		},
		func(c *capsule.Ctx) { // pc1: enqueue committed (Call returned)
			log := logs[c.P().ID()]
			log.Enqueued = append(log.Enqueued, uint64(c.P().ID())<<40|(c.Local(2)-1))
			c.Call(q.DeqRoutine(), q.DeqEntry(), 2, nil, []int{3, 4})
		},
		func(c *capsule.Ctx) { // pc2
			log := logs[c.P().ID()]
			if c.Local(3) != 0 {
				log.Dequeued = append(log.Dequeued, c.Local(4))
			} else {
				log.Empties++
			}
			c.SetLocal(1, c.Local(1)-1)
			c.Boundary(0)
		},
	)
}

// checkExactness validates: every enqueued value dequeued or still
// present, exactly once; per-producer FIFO order among dequeues of each
// consumer stream.
func checkExactness(t *testing.T, logs []*opLog, remaining []uint64, P int, pairs uint64) {
	t.Helper()
	enq := make(map[uint64]int)
	for _, l := range logs {
		for _, v := range l.Enqueued {
			enq[v]++
		}
	}
	consumed := make(map[uint64]int)
	for _, l := range logs {
		for _, v := range l.Dequeued {
			consumed[v]++
		}
	}
	for _, v := range remaining {
		consumed[v]++
	}
	for v, n := range consumed {
		if n != 1 {
			t.Fatalf("value %x consumed %d times", v, n)
		}
		if enq[v] != 1 {
			t.Fatalf("value %x dequeued but enqueued %d times", v, enq[v])
		}
	}
	for v := range enq {
		if consumed[v] != 1 {
			t.Fatalf("value %x lost", v)
		}
	}
	// Per-producer FIFO per consumer stream.
	for ci, l := range logs {
		last := map[uint64]int64{}
		for _, v := range l.Dequeued {
			prod, idx := v>>40, int64(v&0xFFFFFFFFFF)
			if prev, ok := last[prod]; ok && idx <= prev {
				t.Fatalf("consumer %d saw producer %d out of FIFO order", ci, prod)
			}
			last[prod] = idx
		}
	}
}

// TestCrashSweepSinglePairs sweeps a deterministic crash across every
// step of a single-process pair round, for every variant and durability
// configuration, and holds each run to the round's conservation check.
func TestCrashSweepSinglePairs(t *testing.T) {
	const pairs = 3
	for _, v := range variants {
		for _, d := range durCfgs {
			t.Run(fmt.Sprintf("%s/%s", v.name, d.name), func(t *testing.T) {
				pe := newPairEnv(t, v, d, 1, pairs, 1, nil)
				port := pe.r.RT.Proc(0).Mem()
				start := port.Stats.Steps
				pe.r.RT.RunToCompletion(pe.prog)
				total := int64(port.Stats.Steps - start)
				if err := pe.check(); err != nil {
					t.Fatalf("crash-free: %v", err)
				}

				stride := int64(1)
				if testing.Short() {
					stride = 7
				}
				for k := int64(1); k <= total; k += stride {
					pe := newPairEnv(t, v, d, 1, pairs, k, nil)
					pe.r.RT.Proc(0).ArmCrashAfter(k)
					if err := pe.run(); err != nil {
						t.Fatalf("crash@%d: %v", k, err)
					}
					if pe.r.RT.Proc(0).Restarts() != 1 {
						t.Fatalf("crash@%d: %d restarts, want 1", k, pe.r.RT.Proc(0).Restarts())
					}
				}
			})
		}
	}
}

// TestConcurrentCrashStorm runs P processes with randomized independent
// crashes (private model) and validates exactness from persistent state:
// all processes complete all pairs, the queue drains empty, and the
// dequeued values add up even though processes dequeue each other's.
func TestConcurrentCrashStorm(t *testing.T) {
	const P, pairs = 3, 15
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				pe := newPairEnv(t, v, durCfgs[0], P, pairs, seed, nil)
				for i := 0; i < P; i++ {
					pe.r.RT.Proc(i).AutoCrash(seed*31+int64(i), 150, 1500)
				}
				if err := pe.run(); err != nil {
					t.Fatalf("seed=%d: %v", seed, err)
				}
			}
		})
	}
}

// TestSharedSystemCrashStorm drives external full-system crashes during
// a concurrent run in the shared-cache model, for both the Izraelevitz
// and the manual-flush durability configurations.
func TestSharedSystemCrashStorm(t *testing.T) {
	const P, pairs = 2, 10
	for _, v := range variants {
		for _, d := range durCfgs[1:] {
			t.Run(fmt.Sprintf("%s/%s", v.name, d.name), func(t *testing.T) {
				pe := newPairEnv(t, v, d, P, pairs, 99, nil)
				pe.r.RT.GoAll(pe.prog)
				done := make(chan struct{})
				go func() {
					pe.r.RT.Wait()
					close(done)
				}()
				crashes := 0
				for {
					select {
					case <-done:
						if err := pe.check(); err != nil {
							t.Fatalf("after %d system crashes: %v", crashes, err)
						}
						return
					default:
						pe.r.RT.CrashSystem()
						crashes++
					}
				}
			})
		}
	}
}

// pairStats runs one process through 50 pairs of variant v in
// configuration d and returns what the process consumed.
func pairStats(t *testing.T, v variant, d durCfg) pmem.Stats {
	pe := newPairEnv(t, v, d, 1, 50, 1, nil)
	pe.r.RT.RunToCompletion(pe.prog)
	return pe.r.RT.Proc(0).Mem().Stats
}

// TestBoundaryCounts pins the per-operation persist-event ordering the
// paper's Figure 5/6 discussion predicts: the Normalized queue uses
// strictly fewer capsule boundaries per operation than the General one.
func TestBoundaryCounts(t *testing.T) {
	counts := map[string]uint64{}
	for _, v := range variants {
		counts[v.name] = pairStats(t, v, durCfgs[0]).Boundaries
	}
	if counts["normalized"] >= counts["general"] {
		t.Fatalf("normalized (%d) should use fewer boundaries than general (%d)",
			counts["normalized"], counts["general"])
	}
	if counts["normalized-opt"] >= counts["general-opt"] {
		t.Fatalf("normalized-opt (%d) should use fewer boundaries than general-opt (%d)",
			counts["normalized-opt"], counts["general-opt"])
	}
}

// TestFenceCounts pins the Opt claim: compact frames and fence elision
// reduce fences per operation.
func TestFenceCounts(t *testing.T) {
	fences := map[string]uint64{}
	for _, v := range variants {
		fences[v.name] = pairStats(t, v, durCfgs[2]).Fences // manual durability
	}
	if fences["general-opt"] >= fences["general"] {
		t.Fatalf("general-opt fences %d, general %d", fences["general-opt"], fences["general"])
	}
	if fences["normalized-opt"] >= fences["normalized"] {
		t.Fatalf("normalized-opt fences %d, normalized %d", fences["normalized-opt"], fences["normalized"])
	}
}

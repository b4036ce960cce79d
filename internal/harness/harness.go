// Package harness builds and runs the paper's evaluation workloads
// (Section 10) and declares the repository's workload inventory
// (tables.go): for each family (queue, map, stack) the benchmark kinds
// that run a fixed-work measurement and report throughput and the
// per-operation persistence costs (flushes, fences, CASes, capsule
// boundaries) that drive the figures' shape, the figures comparing them
// (lists of points, each a kind at a parameter setting), the tunables,
// the recovery probes and the crash stressers the family packages
// export.
//
// This file is the queue family: T threads running enqueue-dequeue
// pairs against a queue pre-seeded with a large number of nodes, for
// every queue variant in the repository (Figures 5-7). map.go, stack.go
// and batching.go hold the map, stack and batched runners; adding a
// family is a runner file plus its rows in tables.go. Every runner
// builds its machine with newMachine and is timed by timed, so a kind
// and its volatile baseline differ only in the structure they run.
//
// Simulated NVM latency: flushes and fences spin for a calibrated
// number of iterations (Config.FlushDelay/FenceDelay), standing in for
// clflushopt/sfence on the paper's hardware. The container has a single
// vCPU, so absolute throughput and thread-scaling slope are not
// comparable to the paper's 8-core Xeon; the per-variant ordering at
// each thread count is the reproduction target (see EXPERIMENTS.md).
package harness

import (
	"time"

	"delayfree/internal/capsule"
	"delayfree/internal/logqueue"
	"delayfree/internal/msq"
	"delayfree/internal/pmem"
	"delayfree/internal/pqueue"
	"delayfree/internal/proc"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
	"delayfree/internal/romulus"
	"delayfree/internal/workload"
)

// Kinds of the queue family. The durability suffix selects how a
// transformed queue is made durable in the shared-cache model:
// "+izra" = the Izraelevitz construction (flush after every shared
// access, Figure 5), "+manual" = hand-placed flushes (Figure 6).
const (
	KindMSQ            = "msq"             // original Michael–Scott queue (no persistence), Figure 7 baseline
	KindIzraMSQ        = "izraelevitz-msq" // MSQ + Izraelevitz construction, Figure 5 upper bound
	KindGeneralIzra    = "general+izra"
	KindNormalizedIzra = "normalized+izra"
	KindGeneral        = "general+manual"
	KindGeneralOpt     = "general-opt+manual"
	KindNormalized     = "normalized+manual"
	KindNormalizedOpt  = "normalized-opt+manual"
	KindLogQueue       = "logqueue"
	KindRomulus        = "romulus"
)

// Config parametrizes one measurement: common knobs plus the per-family
// parameter bag (see Params).
type Config = workload.Config

// Result is one measured point.
type Result = workload.Result

// seedNodes resolves the queue family's initial-length tunable.
func seedNodes(cfg Config) uint32 { return uint32(cfg.Param("seed-nodes")) }

// newMachine builds a run's fast-mode shared memory and its runtime of
// P processes: words for the structures, plus P capsule areas and 1<<16
// words of slack.
func newMachine(cfg Config, P int, words uint64) (*pmem.Memory, *proc.Runtime) {
	mem := pmem.New(pmem.Config{
		Words:      words + uint64(P)*capsule.ProcWords + 1<<16,
		Mode:       pmem.Shared,
		FlushDelay: cfg.FlushDelay,
		FenceDelay: cfg.FenceDelay,
	})
	return mem, proc.NewRuntime(mem, P)
}

// newArenaMachine builds the machine of an unbatched queue or stack run
// and its node arena: seed nodes plus 8192 for each thread's pairs.
// izra turns on the Izraelevitz construction (pmem.Port.Auto) for every
// process.
func newArenaMachine(cfg Config, seed uint32, izra bool) (*pmem.Memory, *proc.Runtime, *qnode.Arena) {
	n := seed + 8192*uint32(cfg.Threads)
	mem, rt := newMachine(cfg, cfg.Threads, uint64(n+8)*pmem.WordsPerLine)
	for i := 0; i < cfg.Threads; i++ {
		rt.Proc(i).Mem().Auto = izra
	}
	return mem, rt, qnode.NewArena(mem, n)
}

// idle allocates the capsule areas of processes 0..n-1 and installs
// each one idle at routine rid, ready for Machine.Invoke. The installs
// write through the processes' own ports, so their cost is part of the
// run's stats.
func idle(mem *pmem.Memory, rt *proc.Runtime, n int, reg *capsule.Registry, rid capsule.RoutineID) []pmem.Addr {
	bases := capsule.AllocProcAreas(mem, n)
	for i, b := range bases {
		capsule.InstallIdle(rt.Proc(i).Mem(), b, reg, rid)
	}
	return bases
}

func runMSQ(cfg Config, izra bool) Result {
	seed := seedNodes(cfg)
	mem, rt, arena := newArenaMachine(cfg, seed, izra)
	setup := mem.NewPort()
	q := msq.New(mem, setup, arena, 1)
	if seed > 0 {
		q.Seed(setup, 2, seed, func(i uint32) uint64 { return uint64(i) })
	}
	return runPairs(cfg, rt, func(p *proc.Proc) func(uint64) {
		lo, hi := arena.Range(p.ID(), cfg.Threads, seed+1)
		h := q.NewHandle(p.Mem(), lo, hi)
		return func(v uint64) {
			h.Enqueue(v)
			h.Dequeue()
		}
	})
}

func runTransformed(cfg Config, normalized, opt, izra bool) Result {
	seed := seedNodes(cfg)
	mem, rt, arena := newArenaMachine(cfg, seed, izra)
	var space rcas.CasSpace
	if cfg.Param("attiya") != 0 {
		space = rcas.NewAttiya(mem, cfg.Threads)
	} else {
		space = rcas.NewSpace(mem, cfg.Threads)
	}
	qcfg := pqueue.Config{
		Mem:     mem,
		Space:   space,
		Arena:   arena,
		P:       cfg.Threads,
		Durable: !izra,
		Opt:     opt,
	}
	var q pqueue.Queue
	if normalized {
		q = pqueue.NewNormalized(qcfg)
	} else {
		q = pqueue.NewGeneral(qcfg)
	}
	reg := capsule.NewRegistry()
	q.Register(reg)
	setup := mem.NewPort()
	q.Init(setup, pqueue.DummyNode+seed)
	if seed > 0 {
		q.Seed(setup, pqueue.DummyNode+1, seed, func(i uint32) uint64 { return uint64(i) })
	}
	return invokePairs(cfg, mem, rt, reg, q.EnqRoutine(), q.EnqEntry(), q.DeqRoutine(), q.DeqEntry())
}

func runLogQueue(cfg Config) Result {
	seed := seedNodes(cfg)
	mem, rt, arena := newArenaMachine(cfg, seed, false)
	setup := mem.NewPort()
	q := logqueue.New(mem, setup, arena, cfg.Threads, 1)
	if seed > 0 {
		q.Seed(setup, 2, seed, func(i uint32) uint64 { return uint64(i) })
	}
	return runPairs(cfg, rt, func(p *proc.Proc) func(uint64) {
		lo, hi := arena.Range(p.ID(), cfg.Threads, seed+1)
		h := q.NewHandle(p.Mem(), p.ID(), lo, hi)
		return func(v uint64) {
			h.Enqueue(v)
			h.Dequeue()
		}
	})
}

func runRomulus(cfg Config) Result {
	seed := seedNodes(cfg)
	ring := uint64(seed) + uint64(cfg.Threads)*16 + 1024
	words := romulus.QueueWords(ring, cfg.Threads)
	mem, rt := newMachine(cfg, cfg.Threads, words*4)
	setup := mem.NewPort()
	tm := romulus.New(mem, setup, words, cfg.Threads)
	q := romulus.NewQueue(tm, ring, cfg.Threads)
	if seed > 0 {
		th := tm.NewHandle(setup, 0)
		q.Seed(th, uint64(seed), func(i uint64) uint64 { return i })
	}
	return runPairs(cfg, rt, func(p *proc.Proc) func(uint64) {
		h := q.NewHandle(tm.NewHandle(p.Mem(), p.ID()))
		return func(v uint64) {
			h.Enqueue(v)
			h.Dequeue()
		}
	})
}

// invokePairs installs every process idle at the first routine, then
// runs the pairs of a transformed queue or stack: each pair invokes
// first(v), then second().
func invokePairs(cfg Config, mem *pmem.Memory, rt *proc.Runtime, reg *capsule.Registry,
	first capsule.RoutineID, firstEntry int, second capsule.RoutineID, secondEntry int) Result {
	bases := idle(mem, rt, cfg.Threads, reg, first)
	// Per the paper's methodology, the benchmark loop itself is not
	// encapsulated ("before calling each of the queue operations, the
	// general program has to execute a capsule boundary ... since this
	// additional overhead would be the same for all queues tested, we
	// omit it"); each operation is a recoverable Invoke.
	return runPairs(cfg, rt, func(p *proc.Proc) func(uint64) {
		m := capsule.NewMachine(p, reg, bases[p.ID()])
		return func(v uint64) {
			m.Invoke(first, firstEntry, v)
			m.Invoke(second, secondEntry)
		}
	})
}

// runPairs is the timed loop of every fixed-work pair runner: each
// process builds its handle with newPair, then runs cfg.Pairs pairs,
// pair k of process i inserting the value i<<40 | k.
func runPairs(cfg Config, rt *proc.Runtime, newPair func(p *proc.Proc) func(v uint64)) Result {
	return timed(cfg, rt, func(i int) proc.Program {
		return func(p *proc.Proc) {
			pair := newPair(p)
			for k := 0; k < cfg.Pairs; k++ {
				pair(uint64(i)<<40 | uint64(k))
			}
		}
	})
}

// timed runs program(i) on every process of rt to completion and
// assembles the Result: cfg.Pairs*2 operations per thread, the elapsed
// wall-clock time and every process's stats.
func timed(cfg Config, rt *proc.Runtime, program func(i int) proc.Program) Result {
	start := time.Now()
	rt.RunToCompletion(program)
	return Result{
		Threads: cfg.Threads,
		Ops:     uint64(cfg.Threads) * uint64(cfg.Pairs) * 2,
		Elapsed: time.Since(start),
		Stats:   rt.TotalStats(),
	}
}

package harness

import (
	"delayfree/internal/capsule"
	"delayfree/internal/pmem"
	"delayfree/internal/proc"
	"delayfree/internal/pstack"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
)

// The stack workload family: the Section 7 transformation applied to a
// second normalized structure, the Treiber stack, as running evidence
// of Theorem 7.1's generality. Every thread runs Config.Pairs push-pop
// pairs against a stack pre-seeded with stack-seed nodes. The kinds
// bracket recoverability exactly as the queue figures do: the volatile
// Treiber stack is the unprotected baseline; pstack is the Persistent
// Normalized Simulator with hand-placed flushes (the Figure 6
// configuration), over full two-copy frames or the compact one-line
// frames of the -opt variant.

// Kinds of the stack family.
const (
	KindStackVolatile = "stack-volatile"
	KindPStack        = "pstack"
	KindPStackOpt     = "pstack-opt"
)

// stackMem sizes a fast-mode memory and arena for a stack-family run.
func stackMem(cfg Config) (*pmem.Memory, *qnode.Arena, uint32) {
	seed := uint32(cfg.Param("stack-seed"))
	arenaCap := seed + 8192*uint32(cfg.Threads)
	words := uint64(arenaCap+8)*pmem.WordsPerLine +
		uint64(cfg.Threads)*capsule.ProcWords + 1<<16
	mem := pmem.New(pmem.Config{
		Words:      words,
		Mode:       pmem.Shared,
		FlushDelay: cfg.FlushDelay,
		FenceDelay: cfg.FenceDelay,
	})
	return mem, qnode.NewArena(mem, arenaCap), seed
}

func runVolatileStack(cfg Config) Result {
	mem, arena, seed := stackMem(cfg)
	rt := proc.NewRuntime(mem, cfg.Threads)
	setup := mem.NewPort()
	s := pstack.NewVolatile(mem, setup, arena)
	if seed > 0 {
		s.Seed(setup, 1, seed, func(i uint32) uint64 { return uint64(i) })
	}
	return runPairs(cfg, rt, func(p *proc.Proc) func(uint64) {
		lo, hi := arena.Range(p.ID(), cfg.Threads, seed)
		h := s.NewHandle(p.Mem(), lo, hi)
		return func(v uint64) {
			h.Push(v)
			h.Pop()
		}
	})
}

func runPStack(cfg Config, opt bool) Result {
	mem, arena, seed := stackMem(cfg)
	rt := proc.NewRuntime(mem, cfg.Threads)
	s := pstack.New(pstack.Config{
		Mem:     mem,
		Space:   rcas.NewSpace(mem, cfg.Threads),
		Arena:   arena,
		P:       cfg.Threads,
		Durable: true, // hand-placed flushes, the Figure 6 configuration
		Opt:     opt,
	})
	reg := capsule.NewRegistry()
	s.Register(reg)
	bases := capsule.AllocProcAreas(mem, cfg.Threads)
	setup := mem.NewPort()
	s.Init(setup, seed)
	if seed > 0 {
		s.Seed(setup, 1, seed, func(i uint32) uint64 { return uint64(i) })
	}
	for i := 0; i < cfg.Threads; i++ {
		capsule.InstallIdle(rt.Proc(i).Mem(), bases[i], reg, s.Routine())
	}
	// As with the queues, the benchmark loop itself is not encapsulated
	// (the paper's methodology); each operation is a recoverable Invoke.
	return runPairs(cfg, rt, func(p *proc.Proc) func(uint64) {
		m := capsule.NewMachine(p, reg, bases[p.ID()])
		return func(v uint64) {
			m.Invoke(s.Routine(), s.PushEntry(), v)
			m.Invoke(s.Routine(), s.PopEntry())
		}
	})
}

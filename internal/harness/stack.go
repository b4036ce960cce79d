package harness

import (
	"delayfree/internal/capsule"
	"delayfree/internal/proc"
	"delayfree/internal/pstack"
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

func runVolatileStack(cfg Config) Result {
	seed := uint32(cfg.Param("stack-seed"))
	mem, rt, arena := newArenaMachine(cfg, seed, false)
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
	seed := uint32(cfg.Param("stack-seed"))
	mem, rt, arena := newArenaMachine(cfg, seed, false)
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
	setup := mem.NewPort()
	s.Init(setup, seed)
	if seed > 0 {
		s.Seed(setup, 1, seed, func(i uint32) uint64 { return uint64(i) })
	}
	return invokePairs(cfg, mem, rt, reg, s.Routine(), s.PushEntry(), s.Routine(), s.PopEntry())
}

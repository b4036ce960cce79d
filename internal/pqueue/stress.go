package pqueue

import (
	"delayfree/internal/capsule"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
	"delayfree/internal/workload"
)

// Crash-stress for the queue family: every transformed variant runs the
// shared pair round (workload.PairStress) of balanced enqueue-dequeue
// pairs.

// stressSpec is the pair round of the variant built by mk.
func stressSpec(name string, mk func(Config) Queue) workload.StressSpec {
	return workload.PairStress(name, "queue", true,
		func(r *workload.Round, arena *qnode.Arena) (capsule.RoutineID, int, capsule.RoutineID, int, func() []uint64) {
			q := mk(Config{
				Mem:     r.Mem,
				Space:   rcas.NewSpace(r.Mem, r.N),
				Arena:   arena,
				P:       r.N,
				Durable: r.Shared,
			})
			q.Register(r.Reg)
			port := r.RT.Proc(0).Mem()
			q.Init(port, DummyNode)
			return q.EnqRoutine(), q.EnqEntry(), q.DeqRoutine(), q.DeqEntry(), func() []uint64 { return q.Drain(port) }
		})
}

// StressSpecs returns the queue family's stressers: the batched
// front-end, then the pair round of every transformed variant.
func StressSpecs() []workload.StressSpec {
	return []workload.StressSpec{
		batchedStressSpec(),
		stressSpec("general", func(cfg Config) Queue { return NewGeneral(cfg) }),
		stressSpec("general-opt", func(cfg Config) Queue { cfg.Opt = true; return NewGeneral(cfg) }),
		stressSpec("normalized", func(cfg Config) Queue { return NewNormalized(cfg) }),
		stressSpec("normalized-opt", func(cfg Config) Queue { cfg.Opt = true; return NewNormalized(cfg) }),
	}
}

package pstack

import (
	"delayfree/internal/capsule"
	"delayfree/internal/history"
	"delayfree/internal/ingress"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
	"delayfree/internal/workload"
)

// Crash-stress for the batched ingress front-end of the stack family:
// the mirror of the queue's batched round (ingress.ChainStress) with
// BatchPusher as the combiner applier. A batch is one private chain
// swung in by a single top CAS, so a crash inside a combiner span keeps
// either the whole batch or none of it. The residue direction flips:
// Drain returns top-first, so each producer's surviving values must
// appear in strictly *decreasing* attempt order (LIFO of a per-producer
// FIFO publish stream).
func init() {
	workload.RegisterStressSpec(ingress.ChainStress("pstack-batched", "stack", ingress.OpPush, history.OpPush, false,
		func(r *workload.Round, arena *qnode.Arena) ingress.Chain {
			s := New(Config{
				Mem:     r.Mem,
				Space:   rcas.NewSpace(r.Mem, r.N),
				Arena:   arena,
				P:       r.N,
				Durable: true,
				Opt:     true,
			})
			port := r.RT.Proc(0).Mem()
			s.Init(port, 1)
			return ingress.Chain{
				Drain: func() []uint64 { return s.Drain(port) },
				Applier: func(pool *qnode.PackedPool) func(*capsule.Ctx, []uint64) {
					return BatchPusher(s, pool)
				},
			}
		}))
}

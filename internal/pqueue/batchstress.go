package pqueue

import (
	"delayfree/internal/capsule"
	"delayfree/internal/history"
	"delayfree/internal/ingress"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
	"delayfree/internal/workload"
)

// Crash-stress for the batched ingress front-end of the queue family
// (protocol, accounting and residue check: ingress.ChainStress):
// producers enqueue through the ring, the combiner applies batches with
// BatchEnqueuer inside single capsule spans. A batch is one private
// chain linked in by a single CAS, so a crash inside a combiner span
// keeps the whole batch or none of it.
func init() {
	workload.RegisterStressSpec(ingress.ChainStress("pqueue-batched", "queue", ingress.OpEnqueue, history.OpEnq, true,
		func(r *workload.Round, arena *qnode.Arena) ingress.Chain {
			q := NewGeneral(Config{
				Mem:     r.Mem,
				Space:   rcas.NewSpace(r.Mem, r.N),
				Arena:   arena,
				P:       r.N,
				Durable: true,
				Opt:     true,
			})
			port := r.RT.Proc(0).Mem()
			q.Init(port, DummyNode)
			return ingress.Chain{
				Drain: func() []uint64 { return q.Drain(port) },
				Applier: func(pool *qnode.PackedPool) func(*capsule.Ctx, []uint64) {
					return BatchEnqueuer(q, pool)
				},
			}
		}))
}

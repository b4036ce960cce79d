package pstack

import (
	"delayfree/internal/capsule"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
	"delayfree/internal/workload"
)

// Crash-stress for the stack family: the shared pair round
// (workload.PairStress) of balanced push-pop pairs.

// stressSpec is the pair round of the stack built by mk; the round's
// model picks the durable protocol and compact frames together.
func stressSpec(mk func(Config) *Stack) workload.StressSpec {
	return workload.PairStress("pstack", "stack", false,
		func(r *workload.Round, arena *qnode.Arena) (capsule.RoutineID, int, capsule.RoutineID, int, func() []uint64) {
			s := mk(Config{
				Mem:     r.Mem,
				Space:   rcas.NewSpace(r.Mem, r.N),
				Arena:   arena,
				P:       r.N,
				Durable: r.Shared,
				Opt:     r.Shared,
			})
			s.Register(r.Reg)
			port := r.RT.Proc(0).Mem()
			s.Init(port, 0)
			return s.Routine(), s.PushEntry(), s.Routine(), s.PopEntry(), func() []uint64 { return s.Drain(port) }
		})
}

func init() {
	workload.RegisterStressSpec(stressSpec(New))
}

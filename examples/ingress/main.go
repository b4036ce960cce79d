// Ingress: a durable job sink built from the sharded batching ingress,
// through the queue family's packaged batched crash-stress round, the
// pqueue-batched row of the harness stresser table (the same one
// cmd/crashstress runs).
//
//	go run ./examples/ingress
//
// Three producer processes submit jobs through a bounded MPSC ring; one
// combiner process drains the ring in batches and appends each batch to
// a persistent queue (the durable job log) inside a single capsule span
// closed by a single persist epoch — the fence cost of an operation
// falls by 1/batch. Randomized crash injection keeps destroying the
// processes mid-stream in both failure models; a combiner restart or a
// full-system crash loses the volatile ring wholesale.
//
// The producer driver's abandon protocol makes every job
// exactly-once-or-never: a producer that cannot prove its in-flight job
// survived (it crashed, or the combiner's restart epoch moved) abandons
// it instead of resubmitting. The round then audits the durable log
// against each producer's persisted counters — every acknowledged job
// present, none twice, each producer's jobs in submission order — and
// runs the recorded history through the FIFO durable-linearizability
// checker.
package main

import (
	"fmt"

	"delayfree/internal/harness"
	"delayfree/internal/workload"
)

func main() {
	spec, _ := harness.Stresser("pqueue-batched")
	for _, shared := range []bool{false, true} {
		model := "private (independent process crashes)"
		if shared {
			model = "shared-cache (full-system crashes)"
		}
		rep, err := workload.RunRound(spec, workload.StressConfig{
			Procs:  3,
			Ops:    120, // jobs attempted per producer, at least
			Seed:   7,
			Shared: shared,
		})
		if err != nil {
			panic(err)
		}
		st := rep.Stats
		fmt.Printf("%-40s crashes=%-4d restarts=%-4d acked=%-5d avg batch %.1f, %.2f fences/op: exact\n",
			model, rep.Crashes, rep.Restarts, rep.Ops,
			float64(st.BatchedOps)/float64(st.Batches), float64(st.Fences)/float64(st.BatchedOps))
	}
	fmt.Println("every acknowledged job durable exactly once, in order: nothing lost, nothing duplicated")
}

// Queuecrash: the paper's headline artifact in action — the
// Michael–Scott queue transformed by the Persistent Normalized
// Simulator (Section 7) surviving randomized crash injection in both
// failure models, through the queue family's packaged crash-stress
// round, the normalized-opt row of the harness stresser table (the same
// one cmd/crashstress runs).
//
//	go run ./examples/queuecrash
//
// Each round, three processes run enqueue-dequeue pairs through
// encapsulated drivers while randomized step-count crash injection
// keeps destroying them — independent process crashes in the private
// model, whole-system crashes (dropping unflushed cache lines) in the
// shared-cache model. The pair round's exactness check requires that
// the queue drains empty, that no dequeue found it empty, and that the
// persisted sum of dequeued values equals the sum of enqueued values —
// no operation lost, none duplicated, across every crash.
package main

import (
	"fmt"

	"delayfree/internal/harness"
	"delayfree/internal/workload"
)

func main() {
	spec, _ := harness.Stresser("normalized-opt")
	for _, shared := range []bool{false, true} {
		model := "private (independent process crashes)"
		if shared {
			model = "shared-cache (full-system crashes)"
		}
		rep, err := workload.RunRound(spec, workload.StressConfig{
			Procs:  3,
			Ops:    200, // enqueue-dequeue pairs per process
			Seed:   42,
			Shared: shared,
			// The pairs loop until the round's crash quota (250 crash
			// events) is met; a crash every few thousand instrumented
			// steps keeps the example to seconds.
			MinGap: 2000,
			MaxGap: 8000,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-45s restarts=%-5d system-crashes=%-5d ops=%d: exact\n",
			model, rep.Restarts, rep.Crashes, rep.Ops)
	}
	fmt.Println("durably linearizable and detectable: nothing lost, nothing duplicated")
}

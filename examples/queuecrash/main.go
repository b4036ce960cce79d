// Queuecrash: the paper's headline artifact in action — the
// Michael–Scott queue transformed by the Persistent Normalized
// Simulator (Section 7) surviving randomized crash injection in both
// failure models, through the workload registry's packaged crash-stress
// driver (the same one cmd/crashstress runs).
//
//	go run ./examples/queuecrash
//
// Each round, three processes run enqueue-dequeue pairs through
// encapsulated drivers while randomized step-count crash injection
// keeps destroying them — independent process crashes in the private
// model, whole-system crashes (dropping unflushed cache lines) in the
// shared-cache model. The driver's exactness check requires that the
// queue drains empty and the persisted sum of dequeued values equals
// the sum of enqueued values — no operation lost, none duplicated,
// across every crash.
package main

import (
	"fmt"

	"delayfree/internal/workload"
	_ "delayfree/internal/workload/all"
)

func main() {
	for _, shared := range []bool{false, true} {
		model := "private (independent process crashes)"
		if shared {
			model = "shared-cache (full-system crashes)"
		}
		rep, err := workload.RunStress("normalized-opt", workload.StressConfig{
			Procs:  3,
			Ops:    200, // enqueue-dequeue pairs per process
			Seed:   42,
			Shared: shared,
			// Crash every few thousand instrumented steps: frequent
			// enough that every round absorbs dozens of crashes, sparse
			// enough that the example finishes in seconds.
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

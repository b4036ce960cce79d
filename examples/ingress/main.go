// Ingress: a durable job sink built from the sharded batching ingress.
//
//	go run ./examples/ingress
//
// Three producer processes submit jobs through a bounded MPSC ring; one
// combiner process drains the ring in batches and appends each batch to
// a persistent queue (the durable job log) inside a single capsule span
// closed by a single persist epoch — the fence cost of an operation
// falls by 1/batch. Randomized full-system crashes keep destroying all
// four processes mid-stream, losing the volatile ring wholesale.
//
// The producer driver's abandon protocol makes every job
// exactly-once-or-never: a producer that cannot prove its in-flight job
// survived (it crashed, or the combiner's restart epoch moved) abandons
// it instead of resubmitting. After the dust settles the demo audits
// the durable log against each producer's persisted counters: every
// acknowledged job is present, no job appears twice, and each
// producer's jobs are in submission order.
package main

import (
	"fmt"

	"delayfree/internal/capsule"
	"delayfree/internal/ingress"
	"delayfree/internal/pmem"
	"delayfree/internal/pqueue"
	"delayfree/internal/proc"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
)

const (
	producers = 3
	jobsEach  = 120
	batchMax  = 8
	ringCap   = 64
	window    = 8 // producer persistence window: 2 boundaries per 8 jobs
	arenaCap  = 64
	segNodes  = 512
	nsegs     = 4*(producers*jobsEach+512)/segNodes + 2
)

func jobID(pid int, attempt uint64) uint64 { return uint64(pid)<<32 | attempt }

func main() {
	N := producers + 1 // +1 combiner
	mem := pmem.New(pmem.Config{
		Words:   1 << 18,
		Mode:    pmem.Shared, // durability requires flushes + fences
		Checked: true,
		Seed:    7,
	})
	rt := proc.NewRuntime(mem, N)
	rt.SystemCrashMode = true // all processors fail together

	arena := qnode.NewArena(mem, arenaCap)
	q := pqueue.NewGeneral(pqueue.Config{
		Mem:     mem,
		Space:   rcas.NewSpace(mem, N),
		Arena:   arena,
		P:       N,
		Durable: true,
		Opt:     true,
	})
	q.Init(rt.Proc(0).Mem(), pqueue.DummyNode)
	// The combiner's private node pool: jobs are packed 4 nodes per
	// line, so a batch of 8 persists 2-3 chain lines instead of 8.
	npool := qnode.NewPackedPool(mem, arena, segNodes, nsegs, N)
	append_ := pqueue.BatchEnqueuer(q, npool)

	pool := ingress.NewPool(1, ringCap, batchMax, producers)
	// A full-system crash destroys the volatile ring; in-flight jobs are
	// abandoned by their producers, never resubmitted.
	rt.OnSystemCrash = func(uint64) { pool.Reset() }

	reg := capsule.NewRegistry()
	bases := capsule.AllocProcAreas(mem, N)
	for i := 0; i < producers; i++ {
		pid := i
		rid := ingress.RegisterProducerDriver(reg, fmt.Sprintf("producer%d", pid), pool, pid, jobsEach, window, nil,
			func(attempt uint64) ingress.Attempt {
				return ingress.Attempt{
					Rec: ingress.Record{Op: ingress.OpEnqueue, A: jobID(pid, attempt)},
				}
			}, nil)
		capsule.Install(rt.Proc(pid).Mem(), bases[pid], reg, rid)
	}
	vals := make([]uint64, batchMax)
	comb := ingress.RegisterCombiner(reg, "job-sink", pool, 0,
		func(c *capsule.Ctx, batch []ingress.Record) {
			for i := range batch {
				vals[i] = batch[i].A
			}
			append_(c, vals[:len(batch)])
		})
	capsule.Install(rt.Proc(producers).Mem(), bases[producers], reg, comb)

	for i := 0; i < N; i++ {
		rt.Proc(i).AutoCrash(int64(100+i), 500, 1500)
	}
	rt.RunToCompletion(func(i int) proc.Program {
		if i == producers { // the combiner: a restart kills its in-flight batch
			sh := pool.Shard(0)
			return func(p *proc.Proc) {
				if p.PeekCrashed() {
					sh.Epoch.Add(1)
					npool.Rollback() // the un-spliced batch died with the ring
				}
				capsule.NewMachine(p, reg, bases[i]).Run()
			}
		}
		return func(p *proc.Proc) {
			capsule.NewMachine(p, reg, bases[i]).Run()
			pool.MarkDone(i) // only reached on normal completion
		}
	})
	for i := 0; i < N; i++ {
		rt.Proc(i).Disarm()
	}
	rt.CrashSystem() // one last crash: everything unfenced is gone

	// Audit the durable log against each producer's persisted counters.
	acked := make([]uint64, producers)
	abandoned := make([]uint64, producers)
	for i := 0; i < producers; i++ {
		_, _, locals := capsule.NewMachine(rt.Proc(i), reg, bases[i]).LoadState()
		if locals[ingress.SlotIdx] < jobsEach {
			panic("producer stopped early")
		}
		acked[i] = locals[ingress.SlotRet]
		abandoned[i] = locals[ingress.SlotAband]
	}
	log := q.Drain(rt.Proc(0).Mem())
	seen := make(map[uint64]bool, len(log))
	nextAttempt := make([]int64, producers)
	survived := make([]uint64, producers)
	for i := range nextAttempt {
		nextAttempt[i] = -1
	}
	for _, v := range log {
		pid, attempt := int(v>>32), int64(v&(1<<32-1))
		if pid >= producers || attempt >= jobsEach {
			panic(fmt.Sprintf("log holds job %#x nobody submitted", v))
		}
		if seen[v] {
			panic(fmt.Sprintf("job %#x logged twice", v))
		}
		seen[v] = true
		if attempt <= nextAttempt[pid] {
			panic(fmt.Sprintf("producer %d jobs out of order", pid))
		}
		nextAttempt[pid] = attempt
		survived[pid]++
	}
	for i := 0; i < producers; i++ {
		if survived[i] < acked[i] {
			panic(fmt.Sprintf("producer %d: %d jobs acknowledged but only %d in the log", i, acked[i], survived[i]))
		}
		fmt.Printf("producer %d: %3d jobs submitted, %3d acknowledged durable, %3d abandoned to crashes, %3d in the log\n",
			i, jobsEach, acked[i], abandoned[i], survived[i])
	}
	st := rt.TotalStats()
	fmt.Printf("\nsurvived %d full-system crashes; %d batches, avg %.1f jobs per persist epoch (%.2f fences/job)\n",
		rt.SystemCrashes(), st.Batches, float64(st.BatchedOps)/float64(st.Batches),
		float64(st.Fences)/float64(st.BatchedOps))
	fmt.Println("every acknowledged job durable exactly once, in order: nothing lost, nothing duplicated")
}

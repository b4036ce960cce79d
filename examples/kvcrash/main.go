// Kvcrash: the recoverable hash map under fire — scripted Put/Delete/Get
// sequences from three processes in the shared-cache model while
// full-system crashes keep dropping unflushed cache lines, followed by a
// hands-on recovery session.
//
//	go run ./examples/kvcrash
//
// Part 1 runs the map family's packaged crash-stress round, the pmap
// row of the harness stresser table (the same one cmd/crashstress
// runs): the scripts loop until at least 400 full-system crashes have
// been absorbed, then the recovered map is compared against a shadow
// model replayed to each process's persisted operation count — nothing
// may be lost, duplicated or corrupted.
//
// Part 2 shows the recovery API by hand: put a few keys, crash the
// whole system, recover the writable-CAS slot pools, and read the keys
// back through fresh capsule invocations.
package main

import (
	"fmt"

	"delayfree/internal/capsule"
	"delayfree/internal/harness"
	"delayfree/internal/pmap"
	"delayfree/internal/pmem"
	"delayfree/internal/proc"
	"delayfree/internal/workload"
)

func main() {
	// Part 1: the packaged crash-stress round with a shadow-model
	// exactness check.
	spec, _ := harness.Stresser("pmap")
	rep, err := workload.RunRound(spec, workload.StressConfig{
		Procs:   3,
		Ops:     300,
		Crashes: 400,
		Seed:    7,
		Shared:  true, // crashes drop a random prefix of every dirty line
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("crash-stress: %d full-system crashes, %d process restarts, %d scripted ops — recovered map equals shadow model\n",
		rep.Crashes, rep.Restarts, rep.Ops)

	// Part 2: the recovery API by hand.
	const P = 2
	mem := pmem.New(pmem.Config{
		Words:   1 << 16,
		Mode:    pmem.Shared,
		Checked: true,
		Seed:    42,
	})
	rt := proc.NewRuntime(mem, P)
	rt.SystemCrashMode = true

	m := pmap.New(pmap.Config{
		Mem:     mem,
		P:       P,
		Buckets: 64,
		Shards:  2,
		Durable: true,
	})
	setup := mem.NewPort()
	m.Init(setup, map[uint64]uint64{100: 1}) // pre-seeded contents
	m.Bind(rt)

	reg := capsule.NewRegistry()
	m.Register(reg)
	bases := capsule.AllocProcAreas(mem, P)
	for i := 0; i < P; i++ {
		capsule.InstallIdle(rt.Proc(i).Mem(), bases[i], reg, m.Routine())
	}

	// Both processes insert their keys, then the whole system crashes.
	rt.RunToCompletion(func(i int) proc.Program {
		return func(p *proc.Proc) {
			mach := capsule.NewMachine(p, reg, bases[i])
			for k := uint64(1); k <= 5; k++ {
				mach.Invoke(m.Routine(), m.PutEntry(), uint64(i)<<8|k, k*10)
			}
		}
	})
	rt.CrashSystem() // all processors fail together; caches are lost

	// Recovery: rebuild the writable-CAS slot pools once, quiescently,
	// then operate as if nothing happened. That is harmless here only
	// because each process writes its own keys (i<<8|k): the completion
	// of each process's last light Put was volatile, so its next Invoke
	// first re-runs that Put's final write capsule, which would
	// overwrite any later write another process had made to the key.
	m.Recover(setup)
	rt.RunToCompletion(func(i int) proc.Program {
		return func(p *proc.Proc) {
			mach := capsule.NewMachine(p, reg, bases[i])
			for k := uint64(1); k <= 5; k++ {
				r := mach.Invoke(m.Routine(), m.GetEntry(), uint64(i)<<8|k)
				if r[0] == 0 || r[1] != k*10 {
					panic(fmt.Sprintf("proc %d lost key %d after the crash", i, k))
				}
			}
		}
	})
	fmt.Printf("hands-on: all %d keys survived a full-system crash\n", m.Len(setup))
	fmt.Println("durably linearizable and recoverable: nothing lost, nothing duplicated")
}

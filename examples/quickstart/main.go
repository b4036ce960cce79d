// Quickstart: a recoverable fetch-and-increment built from the two core
// mechanisms of the paper — capsules (Section 2.3) and recoverable CAS
// (Section 4, Algorithm 1) — surviving deterministic injected crashes.
//
//	go run ./examples/quickstart
//
// Four processes each increment a shared counter 1000 times while a
// crash is injected every few hundred instructions; the final count is
// exact because every CAS is recoverable (never lost, never repeated)
// and every local is restored from the last capsule boundary.
package main

import (
	"fmt"

	"delayfree/internal/capsule"
	"delayfree/internal/pmem"
	"delayfree/internal/proc"
	"delayfree/internal/rcas"
)

const (
	slotRemaining = 1 // persistent local: increments left
	slotExpected  = 2 // persistent local: expected CAS triple
)

func main() {
	const P, perProc = 4, 1000

	mem := pmem.New(pmem.Config{
		Words:   1 << 16,
		Mode:    pmem.Private,
		Checked: true,
	})
	rt := proc.NewRuntime(mem, P)
	space := rcas.NewSpace(mem, P)
	counter := mem.AllocLines(1)

	// Seed the counter cell durably with the batch persist idiom: write,
	// then one PersistEpoch (flush the written addresses + a single
	// fence). In the private model the fence is a counted no-op, but the
	// same line works unchanged under the shared-cache model.
	setup := mem.NewPort()
	setup.Write(counter, rcas.Pack(0, P, 0)) // alias of process 0
	setup.PersistEpoch(counter)

	// The routine: pc0 reads the counter (a Read-Only capsule), pc1 is
	// the CAS-Read capsule of Algorithm 3 — the recoverable CAS first,
	// recovery-checked when re-executed after a crash.
	reg := capsule.NewRegistry()
	incr := reg.Register("incr", false,
		func(c *capsule.Ctx) { // pc0
			if c.Local(slotRemaining) == 0 {
				c.Finish(rcas.Val(space.ReadFull(c.Mem(), counter)))
				return
			}
			c.SetLocal(slotExpected, space.ReadFull(c.Mem(), counter))
			c.Boundary(1)
		},
		func(c *capsule.Ctx) { // pc1
			pid := c.P().ID()
			seq := c.NextSeq()
			exp := c.Local(slotExpected)
			done := c.Crashed() && space.CheckRecovery(c.Mem(), counter, seq, pid)
			if !done {
				done = space.Cas(c.Mem(), counter, exp,
					rcas.Val(exp)+1, seq, pid)
			}
			if done {
				c.SetLocal(slotRemaining, c.Local(slotRemaining)-1)
			}
			c.Boundary(0)
		},
	)

	bases := capsule.AllocProcAreas(mem, P)
	for i := 0; i < P; i++ {
		capsule.Install(rt.Proc(i).Mem(), bases[i], reg, incr, perProc)
		// Randomized crash injection: every 200–2000 instructions.
		rt.Proc(i).AutoCrash(int64(i)+1, 200, 2000)
	}
	rt.GoAll(func(i int) proc.Program {
		return func(p *proc.Proc) {
			capsule.NewMachine(p, reg, bases[i]).Run()
		}
	})
	rt.Wait()

	total := rcas.Val(mem.VisibleWord(counter))
	crashes := uint64(0)
	for i := 0; i < P; i++ {
		crashes += rt.Proc(i).Restarts()
	}
	fmt.Printf("counter = %d (want %d) after %d injected crashes\n",
		total, P*perProc, crashes)
	if total != P*perProc {
		panic("count is not exact")
	}
	fmt.Println("every increment executed exactly once — delay-free recovery works")
}

// Writablereg: Section 8 in action — the Write/CAS race that breaks
// naive persistence, and the writable CAS objects (Algorithm 8) that
// close it.
//
//	go run ./examples/writablereg
//
// A "configuration register" is concurrently overwritten by a writer
// (Write) and conditionally updated by CASers. Algorithm 8's
// indirection keeps the register atomic: every read observes a value
// someone actually wrote, every successful CAS really displaced the
// value it expected, and slot recycling sustains millions of writes
// with a fixed O(M + P²) footprint.
package main

import (
	"fmt"

	"delayfree/internal/pmem"
	"delayfree/internal/proc"
	"delayfree/internal/wcas"
)

func main() {
	const P = 4
	const perProc = 20000

	mem := pmem.New(pmem.Config{Words: 1 << 18})
	rt := proc.NewRuntime(mem, P)
	arr := wcas.New(mem, rt.Proc(0).Mem(), 2, P,
		func(j int) uint64 { return 0 })

	// Object 0: the racy register (written + CASed). Object 1: a
	// CAS-only counter tracking successful conditional updates.
	rt.GoAll(func(i int) proc.Program {
		return func(p *proc.Proc) {
			h := arr.NewHandle(p.Mem(), i)
			if i == 0 {
				for k := 1; k <= perProc; k++ {
					h.Write(0, uint64(i)<<32|uint64(k))
				}
				return
			}
			for k := 0; k < perProc; k++ {
				v := h.Read(0)
				if h.CAS(0, v, v|1<<48) { // tag the current value
					cur := h.Read(1)
					h.CAS(1, cur, cur+1)
				}
			}
		}
	})
	rt.Wait()

	h := arr.NewHandle(rt.Proc(0).Mem(), 0)
	fmt.Printf("final register: %#x\n", h.Read(0))
	fmt.Printf("successful conditional updates: %d\n", h.Read(1))
	fmt.Printf("%d writes recycled through %d slots without exhaustion\n",
		perProc, 2+2*P*P)
	fmt.Println("Write/CAS races eliminated: writes can now be simulated by CAS,")
	fmt.Println("so the paper's persistent transformations apply to programs with writes")
}

// Bank: crash-consistent multi-word transactions on the Romulus-style
// persistent TM (the paper's Figure 6 comparator). Random transfers
// move money between accounts while lossy crashes interrupt the TM at
// arbitrary points; after every crash+recovery the total balance must
// be conserved — a torn transfer (debit without credit) must never be
// visible.
//
//	go run ./examples/bank
package main

import (
	"fmt"
	"math/rand"

	"delayfree/internal/pmem"
	"delayfree/internal/proc"
	"delayfree/internal/romulus"
)

const (
	accounts          = 16
	initial           = 1000
	rounds            = 40
	transfersPerRound = 25
)

func main() {
	mem := pmem.New(pmem.Config{
		Words:   1 << 16,
		Mode:    pmem.Shared,
		Checked: true,
		Seed:    7,
	})
	rt := proc.NewRuntime(mem, 1)
	port := rt.Proc(0).Mem()

	tm := romulus.New(mem, port, accounts+8, 1)
	h := tm.NewHandle(port, 0)
	h.Update(func(tx *romulus.Tx) {
		for a := uint64(0); a < accounts; a++ {
			tx.Write(a, initial)
		}
	})

	// Durable audit checkpoint: round counter and total balance on one
	// line, persisted with the batch idiom (flush both written words +
	// one fence; the same-line repeat coalesces for free). Because it is
	// fenced before the crash, the checkpoint must survive every round.
	ck := mem.AllocLines(1)

	rng := rand.New(rand.NewSource(99))
	crashes := 0
	for r := 0; r < rounds; r++ {
		for t := 0; t < transfersPerRound; t++ {
			from := uint64(rng.Intn(accounts))
			to := uint64(rng.Intn(accounts))
			amount := uint64(rng.Intn(50))
			h.Update(func(tx *romulus.Tx) {
				b := tx.Read(from)
				if b < amount || from == to {
					return
				}
				tx.Write(from, b-amount)
				tx.Write(to, tx.Read(to)+amount)
			})
		}
		// Checkpoint the round durably before crashing.
		port.Write(ck, uint64(r)+1)
		port.Write(ck+1, accounts*initial)
		port.PersistEpoch(ck, ck+1)

		// Lossy crash: everything unflushed is dropped; the TM state
		// word tells recovery which twin is consistent.
		mem.CrashLossy(false)
		tm.Recover(port)
		crashes++

		if got := mem.PersistedWord(ck); got != uint64(r)+1 {
			panic(fmt.Sprintf("round %d: checkpoint lost (%d) — PersistEpoch did not persist", r, got))
		}
		total := uint64(0)
		for a := uint64(0); a < accounts; a++ {
			total += tm.ReadWord(port, a)
		}
		if total != accounts*initial {
			panic(fmt.Sprintf("round %d: total %d, want %d — torn transfer visible",
				r, total, accounts*initial))
		}
	}
	fmt.Printf("%d transfers across %d lossy crashes: total balance conserved (%d)\n",
		rounds*transfersPerRound, crashes, accounts*initial)
	fmt.Println("Romulus twin-image recovery never exposes a torn transaction")
}

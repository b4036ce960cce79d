package main

import (
	"delayfree/internal/capsule"
	"delayfree/internal/pmem"
	"delayfree/internal/proc"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
	"delayfree/internal/wcas"
)

// Unit-cost probes: each times a loop of calls into one layer's public
// API against a scratch memory with the workloads' configuration, and
// reports nanoseconds per call. They run once, at set-up of a traced
// run, and feed the per-layer table's *_ns rows and the cost model.

const probeIters = 100000

// perCall times body() and returns nanoseconds per unit, where body
// performs `units` units of work.
func perCall(units int, body func()) float64 {
	t0 := nanos()
	body()
	return float64(nanos()-t0) / float64(units)
}

func runProbes() map[string]float64 {
	out := map[string]float64{}
	probePmem(out, flushDelay, fenceDelay, "pmem.flush_ns", "pmem.fence_ns", true)
	probePmem(out, 0, 0, "pmem.flush_host_ns", "pmem.fence_host_ns", false)
	probeProcCapsule(out)
	probeRcas(out)
	probeWcas(out)
	probeQnode(out)
	return out
}

// probePmem times the five port operations. A flush is timed as an
// effective one: eight distinct lines per fence epoch, minus the cost of
// the fence that closes the epoch.
func probePmem(out map[string]float64, fd, fe int, flushName, fenceName string, rwc bool) {
	const lines = 1 << 12
	mem := pmem.New(pmem.Config{Words: (lines + 8) * pmem.WordsPerLine, Mode: pmem.Shared, FlushDelay: fd, FenceDelay: fe})
	p := mem.NewPort()
	base := mem.AllocLines(lines)
	addr := func(i int) pmem.Addr { return base + pmem.Addr(i&(lines-1))*pmem.WordsPerLine }
	if rwc {
		var sink uint64
		out["pmem.read_ns"] = perCall(probeIters, func() {
			for i := 0; i < probeIters; i++ {
				sink += p.Read(addr(i))
			}
		})
		out["pmem.write_ns"] = perCall(probeIters, func() {
			for i := 0; i < probeIters; i++ {
				p.Write(addr(i), uint64(i)+sink&1)
			}
		})
		out["pmem.cas_ns"] = perCall(probeIters, func() {
			for i := 0; i < probeIters; i++ {
				a := addr(i)
				p.CAS(a, p.Memory().VisibleWord(a), uint64(i))
			}
		})
	}
	const epochs = probeIters / 8
	fence := perCall(epochs, func() {
		for i := 0; i < epochs; i++ {
			p.Fence()
		}
	})
	epoch := perCall(epochs, func() {
		for i := 0; i < epochs; i++ {
			p.FlushRange(addr(8*i), 8*pmem.WordsPerLine)
			p.Fence()
		}
	})
	out[fenceName] = fence
	out[flushName] = (epoch - fence) / 8
}

func probeProcCapsule(out map[string]float64) {
	mem := fastMem(capsule.ProcWords + 1<<12)
	rt := proc.NewRuntime(mem, 1)
	p := rt.Proc(0)
	p.ArmCrashAfter(1 << 60) // hook armed, far away
	out["proc.step_ns"] = perCall(probeIters, func() {
		for i := 0; i < probeIters; i++ {
			p.Step()
		}
	})
	p.Disarm()

	reg := capsule.NewRegistry()
	done := reg.Register("bench-probe-done", true, func(c *capsule.Ctx) { c.Done(1) })
	doneRO := reg.Register("bench-probe-done-ro", true, func(c *capsule.Ctx) {
		c.ReadOnly()
		c.DoneRO(1)
	})
	bases := capsule.AllocProcAreas(mem, 1)
	for _, pr := range []struct {
		name string
		rid  capsule.RoutineID
	}{{"capsule.invoke_ns", done}, {"capsule.invoke_ro_ns", doneRO}} {
		capsule.InstallIdle(p.Mem(), bases[0], reg, pr.rid)
		m := capsule.NewMachine(p, reg, bases[0])
		out[pr.name] = perCall(probeIters, func() {
			for i := 0; i < probeIters; i++ {
				m.Invoke(pr.rid, 0)
			}
		})
	}
}

func probeRcas(out map[string]float64) {
	mem := fastMem(1 << 12)
	s := rcas.NewSpace(mem, 1)
	s.SetDurable(true)
	p := mem.NewPort()
	x := mem.AllocLines(1)
	rcas.InitCell(p, x, 0, rcas.Alias(0, 1), 0)
	const n = probeIters / 10
	out["rcas.cas_ns"] = perCall(n, func() {
		for i := uint64(1); i <= n; i++ {
			if !s.Cas(p, x, s.ReadFull(p, x), i&rcas.MaxVal, i, 0) {
				panic("bench: uncontended recoverable CAS failed")
			}
		}
	})
	var sink uint64
	out["rcas.read_ns"] = perCall(probeIters, func() {
		for i := 0; i < probeIters; i++ {
			sink += s.ReadFull(p, x)
		}
	})
	out["rcas.recover_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			seq, _ := s.Recover(p, x, 0)
			sink += seq
		}
	})
	_ = sink
}

func probeWcas(out map[string]float64) {
	const (
		M      = 512
		batch  = 64
		rounds = 400
		window = 1 << 30 // never auto-closes: the close is timed on its own
	)
	lines := (3*(M+rounds*batch) + 128) / pmem.WordsPerLine
	mem := fastMem(uint64(8*(M+lines*pmem.WordsPerLine)) + 1<<14)
	p := mem.NewPort()
	a := wcas.NewWithExtent(mem, p, M, 1, lines, func(j int) uint64 { return uint64(j) })
	a.SetDurable(true)
	h := a.NewHandle(p, 0)
	const n = probeIters / 10
	var sink uint64
	out["wcas.read_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			sink += h.Read(i & (M - 1))
		}
	})
	out["wcas.read_volatile_ns"] = perCall(probeIters, func() {
		for i := 0; i < probeIters; i++ {
			sink += h.ReadVolatile(i & (M - 1))
		}
	})
	out["wcas.write_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			h.Write(i&(M-1), uint64(i))
		}
	})
	out["wcas.cas_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			j := i & (M - 1)
			h.CAS(j, h.ReadVolatile(j), uint64(i)+1)
		}
	})
	_ = sink

	// Group commit: batches of 64 writes, then the window's close timed
	// per deferred swing.
	b := a.NewBatcher(h, lines, window)
	var closeNS int64
	swings := 0
	writeNS := perCall(1, func() {
		for r := 0; r < rounds; r++ {
			b.BeginBatch()
			for i := 0; i < batch; i++ {
				b.BatchWrite((r*batch+i)&(M-1), uint64(r))
			}
			swings += b.CommitBatch()
			if r%32 == 31 { // a 2048-swing window, as the map workloads use
				t0 := nanos()
				b.CloseWindow()
				closeNS += nanos() - t0
			}
		}
	})
	out["wcas.batch_write_ns"] = (writeNS - float64(closeNS)) / float64(rounds*batch)
	out["wcas.close_window_ns"] = ratio(float64(closeNS), float64(swings))
}

func probeQnode(out map[string]float64) {
	const (
		n        = probeIters / 10
		batch    = 64
		rounds   = 400
		segNodes = 4096
	)
	nseg := uint32(rounds*batch/segNodes) + 2
	mem := fastMem(64*pmem.WordsPerLine + qnode.PackedWords(segNodes, nseg) + 1<<14)
	arena := qnode.NewArena(mem, 32)
	p := mem.NewPort()
	pa := qnode.NewPersistentAlloc(mem, p, arena, 1, 32)
	link := func(w uint64) uint32 { return uint32(w) }
	out["qnode.alloc_free_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			node := pa.Alloc(p, link)
			pa.Free(p, node, uint64(pa.FreeHead(p)))
			p.Fence() // Free leaves its head flush to the caller's next drain
		}
	})
	pool := qnode.NewPackedPool(mem, arena, segNodes, nseg, 1)
	out["qnode.packed_alloc_ns"] = perCall(rounds*batch, func() {
		for r := 0; r < rounds; r++ {
			pool.BeginBatch()
			for i := 0; i < batch; i++ {
				node := pool.Alloc()
				p.Write(arena.Val(node), uint64(i))
			}
			pool.FlushBatch(p)
			pool.Commit()
			p.Fence()
		}
	})
}

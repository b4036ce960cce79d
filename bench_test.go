// Benchmarks of the ablations DESIGN.md calls out (A1 recoverable-CAS
// implementations, A2 capsule boundary flavours, A3 writable-CAS
// overhead, E6 recovery latency). The paper's figures themselves are
// produced by cmd/benchfigs.
//
// Timings are from the simulated substrate on however many cores the
// host has; the reported per-op persistence costs (flushes/op,
// fences/op) are hardware-independent.
package delayfree_test

import (
	"fmt"
	"testing"

	"delayfree/internal/capsule"
	"delayfree/internal/logqueue"
	"delayfree/internal/pmem"
	"delayfree/internal/pqueue"
	"delayfree/internal/proc"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
	"delayfree/internal/wcas"
)

// BenchmarkRCas is ablation A1: the paper's Algorithm 1 recoverable CAS
// vs the Attiya et al. variant (which the paper's experiments used), on
// an uncontended fetch-and-increment.
func BenchmarkRCas(b *testing.B) {
	for name, mk := range map[string]func(*pmem.Memory, int) rcas.CasSpace{
		"alg1":   func(m *pmem.Memory, P int) rcas.CasSpace { return rcas.NewSpace(m, P) },
		"attiya": func(m *pmem.Memory, P int) rcas.CasSpace { return rcas.NewAttiya(m, P) },
	} {
		b.Run(name, func(b *testing.B) {
			mem := pmem.New(pmem.Config{Words: 1 << 16})
			s := mk(mem, 8)
			p := mem.NewPort()
			x := mem.AllocLines(1)
			rcas.InitCell(p, x, 0, rcas.Alias(0, 8), 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exp := s.ReadFull(p, x)
				s.Cas(p, x, exp, rcas.Val(exp)+1, uint64(i+1), 0)
			}
		})
		b.Run(name+"-recover", func(b *testing.B) {
			mem := pmem.New(pmem.Config{Words: 1 << 16})
			s := mk(mem, 8)
			p := mem.NewPort()
			x := mem.AllocLines(1)
			rcas.InitCell(p, x, 0, rcas.Alias(0, 8), 0)
			exp := s.ReadFull(p, x)
			s.Cas(p, x, exp, 1, 1, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.CheckRecovery(p, x, 1, 0)
			}
		})
	}
}

// BenchmarkBoundary is ablation A2: full two-copy capsule boundaries vs
// the compact single-line flavour (Section 9/10 optimization), measured
// over a counter loop that persists two locals per capsule.
func BenchmarkBoundary(b *testing.B) {
	for _, compact := range []bool{false, true} {
		name := "full"
		if compact {
			name = "compact"
		}
		b.Run(name, func(b *testing.B) {
			mem := pmem.New(pmem.Config{Words: 1 << 16, FlushDelay: 80, FenceDelay: 40})
			rt := proc.NewRuntime(mem, 1)
			base := capsule.AllocProcAreas(mem, 1)[0]
			reg := capsule.NewRegistry()
			spin := reg.Register("spin", compact,
				func(c *capsule.Ctx) {
					n := c.Local(1)
					if n == 0 {
						c.Finish()
						return
					}
					c.SetLocal(1, n-1)
					c.SetLocal(2, c.Local(2)+n)
					c.Boundary(0)
				},
			)
			capsule.Install(rt.Proc(0).Mem(), base, reg, spin, uint64(b.N))
			// The boundary hot path is allocation-free: the machine reuses
			// its capsule context, flush scratch and frame state across
			// boundaries (TestBoundaryHotPathAllocs pins the exact zero).
			b.ReportAllocs()
			b.ResetTimer()
			rt.RunToCompletion(func(int) proc.Program {
				return func(p *proc.Proc) {
					capsule.NewMachine(p, reg, base).Run()
				}
			})
			b.StopTimer()
			st := rt.Proc(0).Mem().Stats
			b.ReportMetric(float64(st.Flushes)/float64(b.N), "flushes/op")
			b.ReportMetric(float64(st.Fences)/float64(b.N), "fences/op")
		})
	}
}

// BenchmarkWCas is ablation A3: operations on a writable CAS object
// (Algorithm 8) vs raw CAS on a plain word — the price of closing
// Write/CAS races.
func BenchmarkWCas(b *testing.B) {
	b.Run("raw-cas", func(b *testing.B) {
		mem := pmem.New(pmem.Config{Words: 1 << 12})
		p := mem.NewPort()
		a := mem.AllocLines(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.CAS(a, uint64(i), uint64(i+1))
		}
	})
	b.Run("wcas-cas", func(b *testing.B) {
		mem := pmem.New(pmem.Config{Words: 1 << 16})
		rt := proc.NewRuntime(mem, 2)
		arr := wcas.New(mem, rt.Proc(0).Mem(), 1, 2, func(int) uint64 { return 0 })
		h := arr.NewHandle(rt.Proc(0).Mem(), 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.CAS(0, uint64(i), uint64(i+1))
		}
	})
	b.Run("wcas-write", func(b *testing.B) {
		mem := pmem.New(pmem.Config{Words: 1 << 16})
		rt := proc.NewRuntime(mem, 2)
		arr := wcas.New(mem, rt.Proc(0).Mem(), 1, 2, func(int) uint64 { return 0 })
		h := arr.NewHandle(rt.Proc(0).Mem(), 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Write(0, uint64(i))
		}
	})
}

// BenchmarkRecovery is E6: recovery cost after a crash — LogQueue's
// queue traversal vs the transformations' constant capsule reload — at
// two queue lengths.
func BenchmarkRecovery(b *testing.B) {
	for _, n := range []uint32{100, 10000} {
		b.Run(fmt.Sprintf("logqueue/len%d", n), func(b *testing.B) {
			mem := pmem.New(pmem.Config{Words: uint64(n+1024) * pmem.WordsPerLine * 2})
			rt := proc.NewRuntime(mem, 1)
			arena := qnode.NewArena(mem, n+64)
			port := rt.Proc(0).Mem()
			q := logqueue.New(mem, port, arena, 1, 1)
			q.Seed(port, 2, n, func(i uint32) uint64 { return uint64(i) })
			lo, hi := arena.Range(0, 1, n+2)
			h := q.NewHandle(port, 0, lo, hi)
			h.AnnouncePendingEnqueue()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Recover(port, 0)
			}
		})
	}
	b.Run("capsule-reload", func(b *testing.B) {
		mem := pmem.New(pmem.Config{Words: 1 << 18})
		rt := proc.NewRuntime(mem, 1)
		arena := qnode.NewArena(mem, 1024)
		space := rcas.NewSpace(mem, 1)
		q := pqueue.NewNormalized(pqueue.Config{Mem: mem, Space: space, Arena: arena, P: 1})
		reg := capsule.NewRegistry()
		q.Register(reg)
		base := capsule.AllocProcAreas(mem, 1)[0]
		port := rt.Proc(0).Mem()
		q.Init(port, pqueue.DummyNode)
		capsule.Install(port, base, reg, q.EnqRoutine(), 7)
		m := capsule.NewMachine(rt.Proc(0), reg, base)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.LoadState()
			space.CheckRecovery(port, q.HeadAddr(), 1, 0)
		}
	})
}

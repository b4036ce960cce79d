package wcas

import (
	"sync"
	"testing"

	"delayfree/internal/pmem"
	"delayfree/internal/proc"
)

// TestRecoverFreshArray: on an untouched array, Recover must hand out
// exactly 2P disjoint slots per process, none of them live.
func TestRecoverFreshArray(t *testing.T) {
	const M, P = 6, 3
	mem := pmem.New(pmem.Config{Words: 1 << 16})
	rt := proc.NewRuntime(mem, P)
	a := New(mem, rt.Proc(0).Mem(), M, P, func(j int) uint64 { return uint64(j) })
	pools := a.Recover(rt.Proc(0).Mem())
	if len(pools) != P {
		t.Fatalf("pools: %d", len(pools))
	}
	seen := map[uint32]bool{}
	for p, pool := range pools {
		if len(pool) != 2*P {
			t.Fatalf("process %d pool size %d, want %d", p, len(pool), 2*P)
		}
		for _, s := range pool {
			if s < M {
				t.Fatalf("process %d pool holds live slot %d", p, s)
			}
			if seen[s] {
				t.Fatalf("slot %d in two pools", s)
			}
			seen[s] = true
		}
	}
	// The array still works through recovered handles.
	h := a.NewHandleWithPool(rt.Proc(0).Mem(), 0, pools[0])
	h.Write(2, 77)
	if got := h.Read(2); got != 77 {
		t.Fatalf("read %d", got)
	}
}

// TestDurableWriteCrashSweep is the satellite's foundation check: crash
// at every instrumented step of a durable Write — in particular between
// the Ptr-swing CAS and its persist — and assert the recovered value is
// exactly the old or the new value, never a stale slot's content.
func TestDurableWriteCrashSweep(t *testing.T) {
	const v1, v2 = 11, 22
	for k := int64(1); k <= 80; k++ {
		mem := pmem.New(pmem.Config{
			Words:   1 << 14,
			Mode:    pmem.Shared,
			Checked: true,
			Seed:    k,
		})
		rt := proc.NewRuntime(mem, 1)
		rt.SystemCrashMode = true
		a := New(mem, rt.Proc(0).Mem(), 2, 1, func(j int) uint64 { return 0 })
		a.SetDurable(true)
		completedEarly := false
		rt.RunToCompletion(func(i int) proc.Program {
			return func(p *proc.Proc) {
				port := p.Mem()
				if p.Crashed() {
					pools := a.Recover(port)
					got := a.Peek(port, 0)
					if got != v1 && got != v2 {
						t.Errorf("crash after %d steps: recovered %d, want %d or %d", k, got, v1, v2)
					}
					h := a.NewHandleWithPool(port, 0, pools[0])
					h.Write(0, v2)
					return
				}
				h := a.NewHandle(port, 0)
				h.Write(0, v1)
				port.Fence() // make v1's unfenced Ptr flush durable
				p.ArmCrashAfter(k)
				h.Write(0, v2)
				p.Disarm()
				completedEarly = true
			}
		})
		port := rt.Proc(0).Mem()
		if got := a.Peek(port, 0); got != v2 {
			t.Fatalf("k=%d: final value %d, want %d", k, got, v2)
		}
		if completedEarly && k < 5 {
			t.Fatalf("k=%d: write finished before the armed crash; sweep is not covering the protocol", k)
		}
	}
}

// TestRecoverMisalignedGeometry pins the init-image persistence for
// geometries whose allocations are not cache-line aligned (odd P, odd
// M): New's flushes must cover every line the b and ptr regions span,
// including a final partial line, or untouched tail entries revert to
// zero at the first crash and Recover sees slot 0 backing two objects.
func TestRecoverMisalignedGeometry(t *testing.T) {
	for _, g := range []struct{ M, P int }{{5, 3}, {7, 1}, {9, 3}, {13, 5}} {
		mem := pmem.New(pmem.Config{Words: 1 << 14, Mode: pmem.Shared, Checked: true, Seed: 3})
		rt := proc.NewRuntime(mem, g.P)
		rt.SystemCrashMode = true
		a := New(mem, rt.Proc(0).Mem(), g.M, g.P, func(j int) uint64 { return uint64(100 + j) })
		a.SetDurable(true)
		// Crash immediately: nothing but New's own flushes protect the
		// initial image.
		rt.CrashSystem()
		port := rt.Proc(0).Mem()
		pools := a.Recover(port)
		for j := 0; j < g.M; j++ {
			if got := a.Peek(port, j); got != uint64(100+j) {
				t.Fatalf("M=%d P=%d: object %d reverted to %d after crash", g.M, g.P, j, got)
			}
		}
		h := a.NewHandleWithPool(port, 0, pools[0])
		h.Write(g.M-1, 42)
		if got := h.Read(g.M - 1); got != 42 {
			t.Fatalf("M=%d P=%d: post-recovery write read back %d", g.M, g.P, got)
		}
	}
}

// crashRecoverer coordinates one Recover per full-system crash: the
// first process to restart rebuilds the global slot state; the rest of
// the wave reuse its pools. It also runs the shadow-model check while
// the memory is still quiescent.
type crashRecoverer struct {
	mu    sync.Mutex
	epoch uint64
	pools [][]uint32
	check func(port *pmem.Port)
}

func (r *crashRecoverer) handle(rt *proc.Runtime, a *Array, p *proc.Proc) *Handle {
	e := rt.SystemCrashes()
	r.mu.Lock()
	defer r.mu.Unlock()
	if e > r.epoch {
		port := p.Mem()
		pools := a.Recover(port)
		if r.check != nil {
			r.check(port)
		}
		r.pools = pools
		r.epoch = e
	}
	return a.NewHandleWithPool(p.Mem(), p.ID(), r.pools[p.ID()])
}

// TestConcurrentCrashStress floods a durable array with concurrent
// writes and CASes while seeded crash points on process 0 keep turning
// into full-system crashes (dropping a random prefix of every dirty
// cache line). After every crash the recovered value of each object
// must be a value some process actually issued — never a stale slot's
// content leaking through a half-persisted Ptr swing.
func TestConcurrentCrashStress(t *testing.T) {
	const (
		M, P    = 8, 4
		perProc = 2000
	)
	crashes := 60
	if testing.Short() {
		crashes = 12
	}
	mem := pmem.New(pmem.Config{
		Words:   1 << 16,
		Mode:    pmem.Shared,
		Checked: true,
		Seed:    7,
	})
	rt := proc.NewRuntime(mem, P)
	rt.SystemCrashMode = true
	a := New(mem, rt.Proc(0).Mem(), M, P, func(j int) uint64 { return 0 })
	a.SetDurable(true)
	// Process 0 crashes after a seeded number of its own steps; under
	// SystemCrashMode each of its crashes takes every process down.
	rt.Proc(0).AutoCrash(7, 100, 1000)

	var attMu sync.Mutex
	attempted := make([]map[uint64]bool, M)
	for j := range attempted {
		attempted[j] = map[uint64]bool{0: true}
	}
	record := func(j int, v uint64) {
		attMu.Lock()
		attempted[j][v] = true
		attMu.Unlock()
	}

	rec := &crashRecoverer{check: func(port *pmem.Port) {
		attMu.Lock()
		defer attMu.Unlock()
		for j := 0; j < M; j++ {
			if v := a.Peek(port, j); !attempted[j][v] {
				t.Errorf("object %d recovered phantom value %d", j, v)
			}
		}
	}}

	progress := make([]int, P) // volatile per-process resume point
	rt.GoAll(func(i int) proc.Program {
		return func(p *proc.Proc) {
			if i == 0 && rt.SystemCrashes() >= uint64(crashes) {
				p.Disarm() // quota met: the rest of the run is crash-free
			}
			var h *Handle
			if p.Crashed() {
				h = rec.handle(rt, a, p)
			} else {
				h = a.NewHandle(p.Mem(), i)
			}
			// Keep operating until both the op quota and the crash quota
			// are met, so every injected crash hits a live workload.
			for progress[i] < perProc || rt.SystemCrashes() < uint64(crashes) {
				k := progress[i]
				j := (i + k) % M
				v := uint64(i)<<40 | uint64(k)<<8 | 1
				switch k % 3 {
				case 0:
					record(j, v)
					h.Write(j, v)
				case 1:
					cur := h.Read(j)
					record(j, v)
					h.CAS(j, cur, v)
				default:
					h.Read(j)
				}
				progress[i] = k + 1
			}
		}
	})
	rt.Wait()
	if got := rt.SystemCrashes(); got < uint64(crashes) {
		t.Fatalf("only %d system crashes injected", got)
	}
	// Quiescent epilogue: recovery still yields a consistent array.
	port := rt.Proc(0).Mem()
	pools := a.Recover(port)
	h := a.NewHandleWithPool(port, 0, pools[0])
	for j := 0; j < M; j++ {
		h.Write(j, uint64(1000+j))
		if got := h.Read(j); got != uint64(1000+j) {
			t.Fatalf("object %d after recovery: %d", j, got)
		}
	}
}

// TestRecycleScanLeavesInstalledPoolSlotAlone is the deterministic
// regression for the recycle race TestConcurrentCrashStress used to hit
// by luck of the schedule. After Recover every pool slot carries its
// pool owner's stamp, and installing one into Ptr leaves the stamp in
// place; with a reader's announcement naming that slot, the former
// owner's forced announcement scan and another process's swing-out
// (which CASes the slot's status to itself) must not both write the
// status word. The sweep replays A's forced-scan Write with B's Write
// injected before every one of its steps — in particular between A's
// status read and the mark CAS it used to issue — so it needs no sleep
// and no scheduler luck.
func TestRecycleScanLeavesInstalledPoolSlotAlone(t *testing.T) {
	const M, P = 2, 3 // processes: A = 0, B = 1, the reader = 2
	type rig struct {
		hA, hB *Handle
		portA  *pmem.Port
		s      uint32 // the pool slot A installed for object 0
	}
	mk := func() rig {
		mem := pmem.New(pmem.Config{Words: 1 << 14})
		setup := mem.NewPort()
		a := New(mem, setup, M, P, func(int) uint64 { return 0 })
		pools := a.Recover(setup)
		r := rig{portA: mem.NewPort()}
		r.hA = a.NewHandleWithPool(r.portA, 0, pools[0])
		r.hB = a.NewHandleWithPool(mem.NewPort(), 1, pools[1])
		reader := a.NewHandleWithPool(mem.NewPort(), 2, pools[2])
		r.s = r.hA.freePtr
		r.hA.Write(0, 1)
		if got := reader.getObjectIdx(0); got != r.s { // announced, never released
			t.Fatalf("reader resolved object 0 to slot %d, want A's installed slot %d", got, r.s)
		}
		for len(r.hA.free) > 0 { // drain A's free list: its next Write must scan
			r.hA.Write(1, 2)
		}
		return r
	}

	clean := mk()
	before := clean.portA.Stats.Steps
	clean.hA.Write(1, 3)
	steps := clean.portA.Stats.Steps - before

	for k := uint64(1); k <= steps; k++ {
		r := mk()
		var step uint64
		r.portA.Hook = func() {
			if step++; step == k {
				r.hB.Write(0, 9) // swings s out and takes ownership of its status word
			}
		}
		r.hA.Write(1, 3)
		r.portA.Hook = nil
		if got := r.hB.Read(0); got != 9 {
			t.Fatalf("k=%d: object 0 reads %d, want B's 9", k, got)
		}
		if got := r.hA.Read(1); got != 3 {
			t.Fatalf("k=%d: object 1 reads %d, want A's 3", k, got)
		}
		for _, f := range append(r.hA.free, r.hA.freePtr) {
			if f == r.s {
				t.Fatalf("k=%d: A reclaimed slot %d, which B retired and the reader still announces", k, r.s)
			}
		}
		quarantined := false
		for _, q := range r.hB.retired {
			quarantined = quarantined || q == r.s
		}
		if !quarantined {
			t.Fatalf("k=%d: slot %d left B's retired list while still announced", k, r.s)
		}
	}
}

package pqueue

import (
	"testing"

	"delayfree/internal/capsule"
	"delayfree/internal/pmem"
	"delayfree/internal/rcas"
)

// Scripted interleavings of node recycling. Process 1 runs one
// enqueue/dequeue pair; at a chosen point inside its enqueue, process 0
// runs a whole pair of its own, which recycles the node process 1 is
// working on. Both processes then hold every value exactly once and the
// queue is empty.

// scriptedSpace calls onRead after every ReadFull and onCas after every
// Cas, on the calling process's goroutine.
type scriptedSpace struct {
	rcas.CasSpace
	onRead func(p *pmem.Port, x pmem.Addr)
	onCas  func(p *pmem.Port, x pmem.Addr, ok bool)
}

func (s *scriptedSpace) ReadFull(p *pmem.Port, x pmem.Addr) uint64 {
	w := s.CasSpace.ReadFull(p, x)
	if s.onRead != nil {
		s.onRead(p, x)
	}
	return w
}

func (s *scriptedSpace) Cas(p *pmem.Port, x pmem.Addr, exp, newVal, seq uint64, pid int) bool {
	ok := s.CasSpace.Cas(p, x, exp, newVal, seq, pid)
	if s.onCas != nil {
		s.onCas(p, x, ok)
	}
	return ok
}

func baseOf(q Queue) *base {
	switch q := q.(type) {
	case *General:
		return q.base
	case *Normalized:
		return q.base
	}
	panic("pqueue: unknown variant")
}

// runInterleaved runs process 1's pair with script installed on the
// queue's CAS space; script receives a function that runs process 0's
// whole pair to completion on the calling goroutine. It then checks the
// queue drained and the dequeued values add up.
func runInterleaved(t *testing.T, v variant, script func(e *env, s *scriptedSpace, runP0 func())) {
	e := newEnv(t, v, durCfgs[0], 2, 64, 1)
	b := baseOf(e.q)
	s := &scriptedSpace{CasSpace: b.Space}
	b.Space = s
	drv := RegisterPairsDriver(e.reg, e.q)
	prog := InstallDriver(e.rt, e.reg, drv, e.bases, 1)
	script(e, s, func() { capsule.NewMachine(e.rt.Proc(0), e.reg, e.bases[0]).Run() })
	e.rt.Go(1, prog(1))
	e.rt.Wait()
	if got := e.q.Len(e.rt.Proc(0).Mem()); got != 0 {
		t.Fatalf("queue length %d", got)
	}
	if got, want := driverSink(e, 0)+driverSink(e, 1), expectSinkSum(0, 1)+expectSinkSum(1, 1); got != want {
		t.Fatalf("sink total %#x, want %#x", got, want)
	}
}

// Process 0 dequeues and frees the tail node between process 1's read of
// the tail and its read of that node's link. The link then holds a
// free-list word with a null value; taken for the tail's clean link, it
// would let process 1 link its node onto a free node, and its dequeue
// would find the queue empty.
func TestRecycledTailRevalidated(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			runInterleaved(t, v, func(e *env, s *scriptedSpace, runP0 func()) {
				port1, tail := e.rt.Proc(1).Mem(), baseOf(e.q).tail
				fired := false
				s.onRead = func(p *pmem.Port, x pmem.Addr) {
					if p == port1 && x == tail && !fired {
						fired = true
						runP0()
					}
				}
			})
		})
	}
}

// Process 1 links its node onto the dummy and crashes before recording
// that; meanwhile process 0 helps, dequeues that node and frees the
// dummy, overwriting the link that was process 1's only evidence.
// Unless the free notifies it, process 1's recovery finds no success and
// links the same node a second time, behind process 0's.
func TestRecycledLinkKeepsEvidence(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			runInterleaved(t, v, func(e *env, s *scriptedSpace, runP0 func()) {
				p1 := e.rt.Proc(1)
				link := baseOf(e.q).link(DummyNode)
				fired := false
				s.onCas = func(p *pmem.Port, x pmem.Addr, ok bool) {
					if p == p1.Mem() && x == link && ok && !fired {
						fired = true
						runP0()
						p1.CrashNow()
					}
				}
			})
		})
	}
}

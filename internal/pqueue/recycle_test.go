package pqueue

import (
	"errors"
	"runtime"
	"slices"
	"testing"

	"delayfree/internal/capsule"
	"delayfree/internal/pmem"
	"delayfree/internal/proc"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
)

// Scripted interleavings, driven from a wrapping CasSpace. In the
// recycling tests process 1 runs one enqueue/dequeue pair; at a chosen
// point inside its enqueue, process 0 runs a whole pair of its own,
// which recycles the node process 1 is working on. Both processes then
// hold every value exactly once and the queue is empty.

// scriptedSpace calls onRead after every ReadFull, onCas after every
// Cas and onCasAnon after every CasAnon, on the calling process's
// goroutine.
type scriptedSpace struct {
	rcas.CasSpace
	onRead    func(p *pmem.Port, x pmem.Addr)
	onCas     func(p *pmem.Port, x pmem.Addr, ok bool)
	onCasAnon func(p *pmem.Port, x pmem.Addr, ok bool)
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

func (s *scriptedSpace) CasAnon(p *pmem.Port, x pmem.Addr, exp, newVal, seq uint64, pid int) bool {
	ok := s.CasSpace.CasAnon(p, x, exp, newVal, seq, pid)
	if s.onCasAnon != nil {
		s.onCasAnon(p, x, ok)
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

// runInterleaved runs process 1's pair of the pair round with script
// installed on the queue's CAS space; script receives a function that
// runs process 0's whole pair to completion on the calling goroutine.
// The round's conservation check then judges both.
func runInterleaved(t *testing.T, v variant, script func(pe *pairEnv, s *scriptedSpace, runP0 func())) {
	s := &scriptedSpace{}
	pe := newPairEnv(t, v, durCfgs[0], 2, 1, 1, func(sp rcas.CasSpace) rcas.CasSpace {
		s.CasSpace = sp
		return s
	})
	script(pe, s, func() { pe.r.Machine(0).Run() })
	pe.r.RT.Go(1, pe.prog(1))
	pe.r.RT.Wait()
	if err := pe.check(); err != nil {
		t.Fatal(err)
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
			runInterleaved(t, v, func(pe *pairEnv, s *scriptedSpace, runP0 func()) {
				port1, tail := pe.r.RT.Proc(1).Mem(), baseOf(pe.q).tail
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
			runInterleaved(t, v, func(pe *pairEnv, s *scriptedSpace, runP0 func()) {
				p1 := pe.r.RT.Proc(1)
				link := baseOf(pe.q).link(DummyNode)
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

// Two combiners batch-enqueue: combiner 1 applies a whole batch between
// combiner 0's link CAS and its tail swing. Combiner 1 must link behind
// combiner 0's chain, and combiner 0's swing, expecting the tail it
// validated, must fail rather than move the tail back from combiner 1's
// last node onto its own.
func TestBatchEnqueueKeepsTailForward(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			e := newEnv(t, v, durCfgs[0], 2, 64, 1)
			b := baseOf(e.q)
			s := &scriptedSpace{CasSpace: b.Space}
			b.Space = s
			vals := [][]uint64{{10, 11, 12}, {20, 21}}
			var appliers [2]func(*capsule.Ctx, []uint64)
			for i := range appliers {
				appliers[i] = BatchEnqueuer(e.q, qnode.NewPackedPool(e.rt.Mem(), e.arena, 16, 2, 2))
			}
			drv := e.reg.Register("combiner", false, func(c *capsule.Ctx) {
				appliers[c.P().ID()](c, vals[c.P().ID()])
				c.Finish()
			})
			for i := range appliers {
				capsule.Install(e.rt.Proc(i).Mem(), e.bases[i], e.reg, drv)
			}
			port0 := e.rt.Proc(0).Mem()
			fired := false
			s.onCasAnon = func(p *pmem.Port, x pmem.Addr, ok bool) {
				if p == port0 && x != b.tail && ok && !fired {
					fired = true
					capsule.NewMachine(e.rt.Proc(1), e.reg, e.bases[1]).Run()
				}
			}
			e.rt.Go(0, func(p *proc.Proc) { capsule.NewMachine(p, e.reg, e.bases[0]).Run() })
			e.rt.Wait()
			if !fired {
				t.Fatal("combiner 0 never linked its chain")
			}
			port := e.rt.Mem().NewPort()
			if got := port.Read(b.Arena.Val(uint32(rcas.Val(port.Read(b.tail))))); got != 21 {
				t.Fatalf("tail holds %d, want combiner 1's last value 21", got)
			}
			if got := e.q.Drain(port); !slices.Equal(got, []uint64{10, 11, 12, 20, 21}) {
				t.Fatalf("queue %v, want combiner 0's batch then combiner 1's", got)
			}
		})
	}
}

// Process 0's enqueue swings the tail onto its node, and before it
// persists the swing, process 1 dequeues that node's value; then the
// system crashes. Unless the dequeue persisted the tail before its head
// CAS, the durable tail is left behind the durable head, on the node the
// dequeue freed — after recovery a dequeue would read that node's link
// as the queue's, and an enqueue would follow it into the free list.
// The crash keeps a random prefix of every dirty line, so each variant
// runs under several memory seeds.
func TestDequeuePersistsTail(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				e := newEnv(t, v, durCfgs[2], 2, 64, seed) // manual durability, full-system crashes
				b := baseOf(e.q)
				s := &scriptedSpace{CasSpace: b.Space}
				b.Space = s
				enq := e.reg.Register("enqueue-once", false,
					func(c *capsule.Ctx) { c.Call(e.q.EnqRoutine(), e.q.EnqEntry(), 1, []uint64{77}, nil) },
					func(c *capsule.Ctx) { c.Finish() })
				deq := e.reg.Register("dequeue-once", false,
					func(c *capsule.Ctx) { c.Call(e.q.DeqRoutine(), e.q.DeqEntry(), 1, nil, []int{1, 2}) },
					func(c *capsule.Ctx) { c.Finish(c.Local(1), c.Local(2)) })
				capsule.Install(e.rt.Proc(0).Mem(), e.bases[0], e.reg, enq)
				capsule.Install(e.rt.Proc(1).Mem(), e.bases[1], e.reg, deq)
				p0 := e.rt.Proc(0)
				var got []uint64
				swung := func(p *pmem.Port, x pmem.Addr, ok bool) {
					if p == p0.Mem() && x == b.tail && ok && got == nil {
						got = capsule.NewMachine(e.rt.Proc(1), e.reg, e.bases[1]).Run()
						p0.CrashNow()
					}
				}
				s.onCas, s.onCasAnon = swung, swung
				var head, tail uint64
				e.rt.OnSystemCrash = func(uint64) {
					mem := e.rt.Mem()
					head, tail = rcas.Val(mem.PersistedWord(b.head)), rcas.Val(mem.PersistedWord(b.tail))
				}
				e.rt.Go(0, func(p *proc.Proc) { capsule.NewMachine(p, e.reg, e.bases[0]).Run() })
				e.rt.Wait()
				if !slices.Equal(got, []uint64{1, 77}) {
					t.Fatalf("seed %d: dequeue returned %v, want [1 77]", seed, got)
				}
				if tail != head {
					t.Fatalf("seed %d: after the crash the durable tail is node %d, behind the durable head %d", seed, tail, head)
				}
			}
		})
	}
}

// Process 1 links its node onto the dummy, and before it persists the
// link, process 0 runs an operation whose read phase sees that link and
// persists the decision to help swing the tail onto it. The system then
// crashes at every step of process 0's operation in turn, and process 1
// recovers only after process 0 has finished. A crash that keeps the
// decision but drops the link must not let process 0's recovered swing
// point the tail at a node the queue no longer reaches. The crash keeps
// a random prefix of every dirty line, so each crash point runs under
// several memory seeds. Only the General variants persist swing
// decisions.
func TestRecoveredSwingRevalidatesLink(t *testing.T) {
	for _, v := range variants[:2] {
		for _, enqueue := range []bool{true, false} {
			name := v.name + "/dequeue"
			if enqueue {
				name = v.name + "/enqueue"
			}
			t.Run(name, func(t *testing.T) {
				for seed := int64(1); seed <= 4; seed++ {
					for k := int64(1); ; k++ {
						crashed, err := swingCrashScript(t, v, enqueue, k, seed)
						if err != nil {
							t.Fatalf("seed %d, crash after %d steps: %v", seed, k, err)
						}
						if !crashed {
							break
						}
					}
				}
			})
		}
	}
}

// swingCrashScript runs the script of TestRecoveredSwingRevalidatesLink
// with process 0 armed to crash k steps into its operation, reporting
// whether the crash fired and the first time a tail CAS left the tail
// unreachable from the head.
func swingCrashScript(t *testing.T, v variant, enqueue bool, k, seed int64) (bool, error) {
	e := newEnv(t, v, durCfgs[2], 2, 64, seed) // manual durability, full-system crashes
	b := baseOf(e.q)
	s := &scriptedSpace{CasSpace: b.Space}
	b.Space = s
	enq := func(val uint64) capsule.RoutineID {
		return e.reg.Register("enqueue-once", false,
			func(c *capsule.Ctx) { c.Call(e.q.EnqRoutine(), e.q.EnqEntry(), 1, []uint64{val}, nil) },
			func(c *capsule.Ctx) { c.Finish() })
	}
	op0 := enq(22)
	if !enqueue {
		op0 = e.reg.Register("dequeue-once", false,
			func(c *capsule.Ctx) { c.Call(e.q.DeqRoutine(), e.q.DeqEntry(), 1, nil, []int{1, 2}) },
			func(c *capsule.Ctx) { c.Finish() })
	}
	capsule.Install(e.rt.Proc(0).Mem(), e.bases[0], e.reg, op0)
	capsule.Install(e.rt.Proc(1).Mem(), e.bases[1], e.reg, enq(11))
	p0, p1 := e.rt.Proc(0), e.rt.Proc(1)
	start0, done0 := make(chan struct{}), make(chan struct{})
	var err error
	reachable := func() bool {
		port := e.rt.Mem().NewPort()
		tail := uint32(rcas.Val(port.Read(b.tail)))
		n := uint32(rcas.Val(port.Read(b.head)))
		for i := 0; n != 0 && i < 64; i++ {
			if n == tail {
				return true
			}
			n = uint32(rcas.Val(port.Read(b.link(n))))
		}
		return false
	}
	linked, armed := false, false
	s.onCas = func(p *pmem.Port, x pmem.Addr, ok bool) {
		if x == b.tail && ok && err == nil && !reachable() {
			err = errors.New("a tail swing left the tail unreachable from the head")
		}
		if p == p1.Mem() && x == b.link(DummyNode) && ok && !linked {
			// The link is in, unpersisted: let process 0 run, and stop
			// here — a system crash parks process 1 at its next step.
			linked = true
			close(start0)
			for {
				select {
				case <-done0:
					return
				default:
				}
				p1.Step()
				runtime.Gosched()
			}
		}
	}
	s.onRead = func(p *pmem.Port, _ pmem.Addr) {
		if p == p0.Mem() && !armed {
			armed = true
			p0.ArmCrashAfter(k)
		}
	}
	e.rt.Go(0, func(p *proc.Proc) {
		<-start0
		capsule.NewMachine(p, e.reg, e.bases[0]).Run()
		close(done0)
	})
	e.rt.Go(1, func(p *proc.Proc) {
		if p.PeekCrashed() {
			<-done0
		}
		capsule.NewMachine(p, e.reg, e.bases[1]).Run()
	})
	e.rt.Wait()
	return p0.Restarts() > 0, err
}

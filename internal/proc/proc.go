// Package proc simulates the processes of the Parallel Persistent Memory
// model: P asynchronous processes, each of which may crash at any point,
// losing all private volatile state but none of the persistent memory
// (beyond unflushed cache lines in the shared-cache model).
//
// A simulated process is a goroutine running a Program. Crashes are
// injected by panicking with a private sentinel at an instrumented
// step (every persistent-memory operation is one); the panic unwinds
// the goroutine's stack, which genuinely destroys all of the program's
// volatile state — a faithful analogue of losing registers and private
// cache. The runtime then restarts the Program from its entry point,
// where it must consult its persistent restart state (the capsule
// machinery in internal/capsule does this) to resume from the last
// capsule boundary, exactly as in the paper's model (Section 2.1).
//
// The runtime supports the paper's two failure modes:
//
//   - independent crashes (private model): CrashNow/ArmCrashAfter/
//     AutoCrash target one process and only its volatile state is lost;
//   - full-system crashes (shared model): with SystemCrashMode set (or
//     via an explicit CrashSystem call) every process stops at its next
//     instrumented step, unflushed cache lines are dropped via
//     pmem.Memory.Crash, and all processes restart together — the
//     "all processors fail together" failure model of Section 2.1.
package proc

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"delayfree/internal/pmem"
)

// crashSignal is the private panic sentinel used to simulate a crash.
type crashSignal struct{ pid int }

// Program is the code a simulated process runs. It is (re)invoked from
// the top after every crash; persistent-state dispatch (e.g. the capsule
// machine) is the program's responsibility, as in the paper's model
// where the restart pointer supplies the resume context.
type Program func(p *Proc)

// Proc is one simulated process.
type Proc struct {
	id  int
	rt  *Runtime
	mem *pmem.Port

	// crashed is set by the runtime when the process restarts after a
	// crash and cleared by Crashed(); this is the paper's crashed()
	// primitive (Section 2.1).
	crashed bool

	// Crash scheduling. armed counts down instrumented steps; when it
	// hits zero the process crashes. −1 disarms. crashNow forces a
	// crash at the next step. Both may be set from other goroutines.
	armed    atomic.Int64
	crashNow atomic.Bool

	// autoRng, if non-nil, re-arms a random crash delay after every
	// restart, for randomized crash-injection stress.
	autoRng *rand.Rand
	autoMin int64
	autoMax int64

	restarts atomic.Uint64
	running  atomic.Bool
}

// ID returns the process id in [0, P).
func (p *Proc) ID() int { return p.id }

// Mem returns the process's private memory port.
func (p *Proc) Mem() *pmem.Port { return p.mem }

// Runtime returns the owning runtime.
func (p *Proc) Runtime() *Runtime { return p.rt }

// Crashed reports whether the process has restarted due to a crash since
// the last call; reading it resets the flag, matching the paper's
// crashed() primitive. Only the process itself may call it.
func (p *Proc) Crashed() bool {
	c := p.crashed
	p.crashed = false
	return c
}

// PeekCrashed reports the crashed flag without resetting it.
func (p *Proc) PeekCrashed() bool { return p.crashed }

// Restarts returns how many times this process has crash-restarted.
func (p *Proc) Restarts() uint64 { return p.restarts.Load() }

// CrashNow makes the process crash at its next instrumented step.
// Safe to call from any goroutine.
func (p *Proc) CrashNow() { p.crashNow.Store(true) }

// ArmCrashAfter schedules a crash after n further instrumented steps
// (n ≥ 1). Safe to call from any goroutine.
func (p *Proc) ArmCrashAfter(n int64) {
	if n < 1 {
		panic("proc: ArmCrashAfter requires n >= 1")
	}
	p.armed.Store(n)
}

// Disarm cancels any pending per-process crash schedule.
func (p *Proc) Disarm() {
	p.armed.Store(-1)
	p.crashNow.Store(false)
	p.autoRng = nil
}

// AutoCrash re-arms a uniformly random crash delay in [min, max] steps
// after every restart (and arms the first one immediately), driving
// randomized crash-injection stress with a deterministic seed. Call
// before the process starts.
func (p *Proc) AutoCrash(seed, min, max int64) {
	if min < 1 || max < min {
		panic("proc: AutoCrash requires 1 <= min <= max")
	}
	p.autoRng = rand.New(rand.NewSource(seed))
	p.autoMin, p.autoMax = min, max
	p.armed.Store(min + p.autoRng.Int63n(max-min+1))
}

// hook is installed as the pmem.Port crash hook; it runs at every
// instrumented step of the process.
func (p *Proc) hook() {
	if p.rt.sysCrash.Load() {
		panic(crashSignal{p.id})
	}
	if p.crashNow.Load() && p.crashNow.CompareAndSwap(true, false) {
		panic(crashSignal{p.id})
	}
	if p.armed.Load() >= 0 && p.armed.Add(-1) == 0 {
		panic(crashSignal{p.id})
	}
}

// Step charges one instrumented step without touching memory; programs
// can call it in volatile-only loops so crash injection can reach them.
// It goes through the port's Hook like every memory step, so a test that
// scripts an interleaving on the hook sees idle polls too.
func (p *Proc) Step() {
	p.mem.Stats.Steps++
	if h := p.mem.Hook; h != nil {
		h()
	}
}

// Runtime manages P simulated processes over one Memory.
type Runtime struct {
	mem   *pmem.Memory
	procs []*Proc

	// SystemCrashMode, when set before processes start, turns every
	// injected crash into a full-system crash: all processes stop,
	// unflushed lines are dropped, and everyone restarts together.
	// This is the shared-cache failure model.
	SystemCrashMode bool

	// OnSystemCrash, if non-nil, is called once per completed
	// full-system crash — after the unflushed lines are dropped, while
	// every process is still parked — with the 1-based crash count.
	// That stopped-world instant is the only point where a global crash
	// marker can be placed into a recorded history without racing any
	// process's own events. The hook runs with the runtime's internal
	// lock held: it must be fast and must not call back into the
	// runtime. Set before processes start.
	OnSystemCrash func(n uint64)

	wg sync.WaitGroup

	// Full-system crash coordination. sysCrash mirrors sysCrashing for
	// lock-free reads in the step hook.
	sysCrash    atomic.Bool
	sysMu       sync.Mutex
	sysCond     *sync.Cond
	sysCrashing bool
	stopped     int // processes parked waiting for the crash to finish
	active      int // processes currently running programs
	sysCrashes  uint64
}

// NewRuntime creates a runtime with P processes over mem.
func NewRuntime(mem *pmem.Memory, P int) *Runtime {
	if P < 1 {
		panic("proc: need at least one process")
	}
	rt := &Runtime{mem: mem, procs: make([]*Proc, P)}
	rt.sysCond = sync.NewCond(&rt.sysMu)
	for i := 0; i < P; i++ {
		p := &Proc{id: i, rt: rt, mem: mem.NewPort()}
		p.armed.Store(-1)
		p.mem.Hook = p.hook
		rt.procs[i] = p
	}
	return rt
}

// P returns the number of processes.
func (rt *Runtime) P() int { return len(rt.procs) }

// Proc returns process i.
func (rt *Runtime) Proc(i int) *Proc { return rt.procs[i] }

// Mem returns the shared persistent memory.
func (rt *Runtime) Mem() *pmem.Memory { return rt.mem }

// SystemCrashes returns how many full-system crashes have completed.
func (rt *Runtime) SystemCrashes() uint64 {
	rt.sysMu.Lock()
	defer rt.sysMu.Unlock()
	return rt.sysCrashes
}

// Go starts process i running prog. The program is restarted after every
// crash until it returns normally. Use Wait to join.
func (rt *Runtime) Go(i int, prog Program) {
	p := rt.procs[i]
	if !p.running.CompareAndSwap(false, true) {
		panic(fmt.Sprintf("proc: process %d already running", i))
	}
	rt.sysMu.Lock()
	rt.active++
	rt.sysMu.Unlock()
	rt.wg.Add(1)
	go rt.runLoop(p, prog)
}

// GoAll starts every process on the program produced by mk.
func (rt *Runtime) GoAll(mk func(i int) Program) {
	for i := range rt.procs {
		rt.Go(i, mk(i))
	}
}

// Wait blocks until every started program has returned normally.
func (rt *Runtime) Wait() { rt.wg.Wait() }

// RunToCompletion starts all programs and waits.
func (rt *Runtime) RunToCompletion(mk func(i int) Program) {
	rt.GoAll(mk)
	rt.Wait()
}

func (rt *Runtime) runLoop(p *Proc, prog Program) {
	defer rt.wg.Done()
	defer func() {
		rt.sysMu.Lock()
		rt.active--
		rt.finishSysCrashLocked()
		rt.sysMu.Unlock()
		p.running.Store(false)
	}()
	for {
		crashed := rt.runOnce(p, prog)
		if !crashed {
			return
		}
		p.restarts.Add(1)
		p.mem.DropPending() // unfenced flushes have no guarantee
		rt.parkAfterCrash()
		p.crashed = true
		if p.autoRng != nil {
			p.armed.Store(p.autoMin + p.autoRng.Int63n(p.autoMax-p.autoMin+1))
		}
	}
}

// runOnce runs the program until it returns (false) or crashes (true).
func (rt *Runtime) runOnce(p *Proc, prog Program) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashSignal); ok {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	prog(p)
	return false
}

// finishSysCrashLocked completes a pending full-system crash once every
// active process has parked: it drops the unflushed cache lines and
// releases everyone. Callers must hold sysMu.
func (rt *Runtime) finishSysCrashLocked() {
	if rt.sysCrashing && rt.stopped == rt.active {
		rt.mem.Crash()
		rt.sysCrashes++
		if rt.OnSystemCrash != nil {
			rt.OnSystemCrash(rt.sysCrashes)
		}
		rt.sysCrashing = false
		rt.sysCrash.Store(false)
	}
	rt.sysCond.Broadcast()
}

// parkAfterCrash is called by a process that just crashed. In
// SystemCrashMode it escalates the crash to a full-system one; either
// way, if a system crash is pending the process parks until the crash
// completes (possibly completing it itself, if it is the last to stop).
func (rt *Runtime) parkAfterCrash() {
	rt.sysMu.Lock()
	defer rt.sysMu.Unlock()
	if rt.SystemCrashMode && !rt.sysCrashing {
		rt.sysCrashing = true
		rt.sysCrash.Store(true)
	}
	if !rt.sysCrashing {
		return
	}
	rt.stopped++
	rt.finishSysCrashLocked()
	for rt.sysCrashing {
		rt.sysCond.Wait()
	}
	rt.stopped--
}

// CrashSystem triggers a full-system crash from outside the processes
// and blocks until it has completed. Processes already parked or not yet
// started count as stopped.
func (rt *Runtime) CrashSystem() {
	rt.sysMu.Lock()
	defer rt.sysMu.Unlock()
	for rt.sysCrashing {
		rt.sysCond.Wait()
	}
	rt.sysCrashing = true
	rt.sysCrash.Store(true)
	rt.finishSysCrashLocked()
	for rt.sysCrashing {
		rt.sysCond.Wait()
	}
}

// TotalStats sums the per-process memory statistics.
func (rt *Runtime) TotalStats() pmem.Stats {
	var s pmem.Stats
	for _, p := range rt.procs {
		s.Add(p.mem.Stats)
	}
	return s
}

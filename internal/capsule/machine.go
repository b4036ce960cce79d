package capsule

import (
	"fmt"

	"delayfree/internal/pmem"
	"delayfree/internal/proc"
)

// RoutineID identifies a registered routine.
type RoutineID int

// PCDone is the control-word program counter recording that a routine's
// top-level invocation has completed.
const PCDone = 0xFFF

// Capsule is one capsule body. It must finish by calling exactly one of
// the Ctx terminal operations (Boundary, Call, Return, Finish) and then
// return immediately.
type Capsule func(c *Ctx)

// Routine is encapsulated code: an array of capsules indexed by program
// counter.
type Routine struct {
	ID      RoutineID
	Name    string
	Compact bool // use the one-cache-line boundary optimization
	Caps    []Capsule
}

// Registry holds the routines of a program. Registration order must be
// deterministic across restarts (routine ids are persisted), which it is
// as long as programs register routines in straight-line setup code.
type Registry struct {
	routines []*Routine
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a routine and returns its id.
func (r *Registry) Register(name string, compact bool, caps ...Capsule) RoutineID {
	if len(caps) == 0 {
		panic("capsule: routine needs at least one capsule")
	}
	if len(caps) >= PCDone {
		panic("capsule: too many capsules in routine " + name)
	}
	rt := &Routine{ID: RoutineID(len(r.routines)), Name: name, Compact: compact, Caps: caps}
	r.routines = append(r.routines, rt)
	return rt.ID
}

// Routine returns the routine with the given id.
func (r *Registry) Routine(id RoutineID) *Routine {
	if int(id) < 0 || int(id) >= len(r.routines) {
		panic(fmt.Sprintf("capsule: unknown routine %d", id))
	}
	return r.routines[id]
}

// Machine executes encapsulated routines for one process, implementing
// the restart discipline of the paper: all resumption state lives in
// persistent memory (the frames' control words and callee-live bits);
// the machine's own fields are volatile caches that are reconstructed
// from the frames after a crash.
type Machine struct {
	p    *proc.Proc
	mem  *pmem.Port
	reg  *Registry
	base pmem.Addr

	depth int
	vol   [MaxDepth][MaxSlots]uint64
	volOK [MaxDepth]bool
	pc    [MaxDepth]int
	mask  [MaxDepth]uint32
	epoch [MaxDepth]uint64
	rid   [MaxDepth]RoutineID

	crashedCap bool
	finished   bool
	rets       []uint64

	// light marks a light Invoke in progress: the final capsule's
	// completion is volatile, its dirty slots carried into the next
	// operation's first boundary via carryDirty. finishedLight records
	// that the persisted pc is mid-routine only because the completion
	// was volatile, not because work is pending.
	light         bool
	finishedLight bool
	carryDirty    uint32

	// flushBuf is the reusable scratch list of addresses written by the
	// current terminal operation, handed to Port.FlushAddrs; the
	// write-combining layer coalesces the same-line repeats.
	flushBuf []pmem.Addr

	// ctx is the reusable capsule context: handing capsules a pointer
	// into the (already heap-allocated) machine instead of a fresh
	// stack Ctx keeps the boundary hot path at zero allocations per
	// operation — &Ctx{} passed to an unknown capsule function would
	// escape and cost one allocation per capsule.
	ctx Ctx

	// effectsAt snapshots the port's persistent-effect counter at the
	// last *persisted* commit (boundary, call, return, finish, or
	// reload); volatile, rebuilt on reload. BoundaryRO elides its
	// persistence exactly when the counter has not moved since: the
	// machine gave the memory nothing to persist, so a crash replaying
	// from the last persisted boundary re-runs only reads — externally
	// invisible.
	effectsAt uint64
}

// NewMachine creates a machine for process p whose capsule area starts
// at base (from AllocProcAreas). Construct a fresh Machine on every
// (re)entry of the process program; its volatile state is rebuilt from
// persistent memory.
func NewMachine(p *proc.Proc, reg *Registry, base pmem.Addr) *Machine {
	m := &Machine{p: p, mem: p.Mem(), reg: reg, base: base}
	m.effectsAt = m.mem.PersistEffects()
	return m
}

// clean reports whether the port has issued no persistent effect
// (write, successful CAS, issued flush) since the last persisted
// commit — the eligibility test of the read-only tier.
func (m *Machine) clean() bool { return m.mem.PersistEffects() == m.effectsAt }

// checkedMode reports whether the underlying memory validates crash
// semantics (the mode in which read-only violations panic).
func (m *Machine) checkedMode() bool { return m.mem.Memory().Config().Checked }

// Install initializes the persistent capsule area so that the process
// will begin executing routine rid with the given arguments (placed in
// slots 1..len(args), every other slot zero). Must run before the
// process program starts (or between runs); it is not crash-safe
// itself.
func Install(port *pmem.Port, base pmem.Addr, reg *Registry, rid RoutineID, args ...uint64) {
	install(port, base, reg, rid, 0, args)
}

// InstallIdle initializes a process's capsule area with routine rid in
// the completed state: nothing to resume, ready for Machine.Invoke.
func InstallIdle(port *pmem.Port, base pmem.Addr, reg *Registry, rid RoutineID) {
	install(port, base, reg, rid, PCDone, nil)
}

// install writes frame 0 of a capsule area, fresh or left by an earlier
// run: the header, a clear pending word, copy 0 of every slot (sequence
// number 0, the arguments, then zeros) and the control word at pc with
// epoch 0 or an all-copy-0 mask. A compact frame's pong control word is
// zeroed too, or its higher epoch would win recovery over the install.
// The words past the arguments are written only where they are not
// already zero, so installing on a fresh area costs what it always did;
// install runs at quiescence, when the area's visible words are its
// durable ones.
func install(port *pmem.Port, base pmem.Addr, reg *Registry, rid RoutineID, pc int, args []uint64) {
	r := reg.Routine(rid)
	fr := frameAddr(base, 0)
	nslots, slot := MaxSlots, func(s int) pmem.Addr { return slotAddr(fr, s, 0) }
	if r.Compact {
		nslots, slot = MaxCompactSlots, func(s int) pmem.Addr { return compactLine(fr, 0) + pmem.Addr(s) }
	}
	if len(args) >= nslots {
		panic("capsule: too many args for frame")
	}
	port.Write(fr+frameHdrOff, uint64(rid))
	port.Write(fr+framePendingOff, 0)
	written := []pmem.Addr{slot(SeqSlot)}
	port.Write(slot(SeqSlot), 0)
	for s := 1; s < nslots; s++ {
		switch a := slot(s); {
		case s <= len(args):
			port.Write(a, args[s-1])
		case port.Memory().VisibleWord(a) != 0:
			port.Write(a, 0)
			written = append(written, a)
		}
	}
	if r.Compact {
		ln := compactLine(fr, 0)
		port.Write(ln+compactCtlOff, packCompact(pc, 0))
		port.Flush(ln)
		if pong := compactLine(fr, 1) + compactCtlOff; port.Memory().VisibleWord(pong) != 0 {
			port.Write(pong, 0)
			port.Flush(pong)
		}
	} else {
		port.Write(fr+frameCtlOff, packCtl(pc, 0))
		if pc == PCDone {
			port.FlushAddrs(append(written, fr+frameCtlOff)...)
		} else {
			port.FlushRange(fr, FrameWords)
		}
	}
	port.Flush(fr)
	port.Fence()
}

// Run resumes execution from the persistent restart state and runs until
// the depth-0 routine calls Finish. It returns the Finish values (nil if
// resuming a program that had already finished before a crash).
func (m *Machine) Run() []uint64 {
	m.crashedCap = m.p.Crashed()
	m.reload()
	m.runToCompletion()
	return m.rets
}

// reload reconstructs the volatile caches from persistent memory after a
// (re)start. It performs only reads, so it is trivially idempotent and
// may itself be interrupted by further crashes.
func (m *Machine) reload() {
	m.volOK = [MaxDepth]bool{}
	m.effectsAt = m.mem.PersistEffects()
	m.depth = m.activeDepth()
	m.loadFrame(m.depth)
}

// activeDepth finds the frame to resume by following callee-live bits
// from depth 0: at most MaxDepth frames, so recovery delay stays
// constant. A compact frame ends the walk with its pending word unread:
// it cannot call, and compact boundaries never write that word, so it
// may still hold the bit of a full routine abandoned there mid-call.
func (m *Machine) activeDepth() int {
	for d := 0; d < MaxDepth; d++ {
		fr := frameAddr(m.base, d)
		if m.reg.Routine(RoutineID(m.mem.Read(fr+frameHdrOff))).Compact ||
			m.mem.Read(fr+framePendingOff)&pendingLive == 0 {
			return d
		}
	}
	panic("capsule: corrupt frames: live bit set at the deepest frame")
}

// loadFrame populates the volatile cache for depth d from its frame,
// choosing the valid copy of each slot per the frame flavour's protocol.
func (m *Machine) loadFrame(d int) {
	fr := frameAddr(m.base, d)
	rid := RoutineID(m.mem.Read(fr + frameHdrOff))
	r := m.reg.Routine(rid)
	m.rid[d] = rid
	if r.Compact {
		ctlA := m.mem.Read(fr + frameCompactA + compactCtlOff)
		ctlB := m.mem.Read(fr + frameCompactB + compactCtlOff)
		pcA, eA := unpackCompact(ctlA)
		pcB, eB := unpackCompact(ctlB)
		// The line with the larger epoch is the most recent fully
		// persisted boundary: its control word was written after its
		// slots, and same-line writes persist in order, so a partially
		// persisted boundary still shows the line's previous epoch.
		pc, e := pcA, eA
		ln := fr + frameCompactA
		if eB > eA {
			pc, e = pcB, eB
			ln = fr + frameCompactB
		}
		m.pc[d], m.epoch[d] = pc, e
		for s := 0; s < MaxCompactSlots; s++ {
			m.vol[d][s] = m.mem.Read(ln + pmem.Addr(s))
		}
	} else {
		pc, mask := unpackCtl(m.mem.Read(fr + frameCtlOff))
		m.pc[d], m.mask[d] = pc, mask
		for s := 0; s < MaxSlots; s++ {
			m.vol[d][s] = m.mem.Read(slotAddr(fr, s, mask>>s&1))
		}
	}
	m.volOK[d] = true
}

func (m *Machine) routine(d int) *Routine { return m.reg.Routine(m.rid[d]) }

// Invoke runs routine rid as a fresh depth-0 invocation starting at
// capsule `entry` with the given arguments, and returns its Done/Finish
// values. The frame reset is one boundary (a single flush+fence for
// compact routines), mirroring the paper's benchmark methodology where
// the surrounding program's own capsule boundary is not charged to the
// queue operation. The process's sequence number (slot 0) is carried
// across invocations.
//
// Crash semantics: the reset commits like any boundary, so a restart
// resumes the *operation* exactly; what is lost is only the volatile
// caller loop around Invoke — the caller is assumed to handle its own
// recovery (or to be a benchmark that does not crash). For a fully
// recoverable program, use Call from an encapsulated routine instead.
func (m *Machine) Invoke(rid RoutineID, entry int, args ...uint64) []uint64 {
	m.crashedCap = m.p.Crashed()
	if !m.volOK[0] {
		m.reload()
		if m.depth != 0 {
			panic("capsule: Invoke with a nested frame active")
		}
		// Finish any operation interrupted by a crash before starting
		// the new one (its result goes to the persistent state; the
		// volatile caller that wanted it is gone anyway).
		if m.pc[0] != PCDone {
			m.runToCompletion()
		}
	} else if m.pc[0] != PCDone && !m.finishedLight {
		m.runToCompletion()
	}

	r := m.reg.Routine(rid)
	if m.rid[0] != rid {
		// Routine change: persist the header before any control word
		// that relies on it for layout parsing, then take the full
		// reset path.
		fr := frameAddr(m.base, 0)
		m.mem.Write(fr+frameHdrOff, uint64(rid))
		m.mem.Flush(fr)
		m.mem.Fence()
		m.rid[0] = rid
		m.carryDirty = 0xFFFFFF // persist everything at the first boundary
	}
	maxArgs := MaxSlots
	if r.Compact {
		maxArgs = MaxCompactSlots
	}
	if len(args) >= maxArgs {
		panic("capsule: too many args for frame")
	}
	// Light reset: volatile only. The operation's first capsule ends
	// with a boundary that persists the arguments and entry state; a
	// crash before it simply never starts the operation, which is
	// indistinguishable from crashing just before Invoke.
	seq := m.vol[0][SeqSlot]
	for s := 1; s < maxArgs; s++ {
		m.vol[0][s] = 0
	}
	for k, a := range args {
		m.vol[0][1+k] = a
		m.carryDirty |= 1 << (1 + k)
	}
	m.vol[0][SeqSlot] = seq
	m.pc[0] = entry
	m.light = true
	m.finishedLight = false
	// Restart the read-only tier's clean span at the op boundary: the
	// previous operation's effects belong to *it*, not to this one, so
	// they must not demote this operation's read-only capsules. An
	// elided first boundary means a crash re-runs the last persisted
	// capsule of an *earlier* operation. That is sound while this
	// operation stays read-only. If it writes after the elided boundary
	// and completes volatilely, nothing records it, and a later crash
	// can re-run the earlier operation's write over it (DESIGN.md, "The
	// read-only fast lane").
	m.effectsAt = m.mem.PersistEffects()
	m.runToCompletion()
	m.light = false
	return m.rets
}

// runToCompletion drives the current frame until the depth-0 routine
// finishes, leaving its Finish values in m.rets (nil when the persisted
// state was already PCDone).
func (m *Machine) runToCompletion() {
	m.finished = false
	m.rets = nil
	for !m.finished {
		d := m.depth
		pc := m.pc[d]
		if pc == PCDone {
			if d != 0 {
				panic("capsule: PCDone at depth > 0")
			}
			return
		}
		r := m.reg.Routine(m.rid[d])
		if pc < 0 || pc >= len(r.Caps) {
			panic(fmt.Sprintf("capsule: routine %s pc %d out of range", r.Name, pc))
		}
		ctx := &m.ctx
		*ctx = Ctx{m: m, dirty: m.carryDirty, effects0: m.mem.PersistEffects()}
		m.carryDirty = 0
		r.Caps[pc](ctx)
		if !ctx.terminal {
			panic(fmt.Sprintf("capsule: routine %s pc %d returned without a terminal op", r.Name, pc))
		}
		if ctx.committed {
			// An elided terminal keeps the crashed flag: the restart
			// point has not advanced, so the capsules that follow may
			// still be repetitions of a crashed span.
			m.crashedCap = false
		}
	}
}

// LoadState reloads the persistent restart state and returns the
// current depth, program counter and a copy of the current frame's
// locals. Intended for quiescent inspection (tests, recovery audits) —
// pc == PCDone means the depth-0 routine has completed and the locals
// are those persisted by its final capsule.
func (m *Machine) LoadState() (depth, pc int, locals []uint64) {
	m.reload()
	locals = make([]uint64, MaxSlots)
	copy(locals, m.vol[m.depth][:])
	return m.depth, m.pc[m.depth], locals
}

// Depth returns the current call depth (volatile view).
func (m *Machine) Depth() int { return m.depth }

// Proc returns the owning process.
func (m *Machine) Proc() *proc.Proc { return m.p }

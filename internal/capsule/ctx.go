package capsule

import (
	"fmt"

	"delayfree/internal/pmem"
	"delayfree/internal/proc"
)

// Ctx is the interface a capsule body uses to read and write persistent
// locals and to end the capsule with a terminal operation. A Ctx is
// valid only for the duration of one capsule invocation.
type Ctx struct {
	m        *Machine
	dirty    uint32
	terminal bool
	// effects0 snapshots the port's persistent-effect counter at
	// capsule entry; the declared read-only check compares against it.
	effects0 uint64
	// ro marks the capsule declared read-only (Ctx.ReadOnly): in
	// checked mode its terminal panics if the capsule issued any
	// persistent effect.
	ro bool
	// committed reports whether the terminal persisted a commit. The
	// machine clears the crashed flag only on committed terminals: an
	// elided terminal leaves the restart point behind, so following
	// capsules may still be repetitions of a crashed span.
	committed bool
}

// P returns the executing process.
func (c *Ctx) P() *proc.Proc { return c.m.p }

// Mem returns the process's memory port, for shared-memory operations
// inside the capsule.
func (c *Ctx) Mem() *pmem.Port { return c.m.mem }

// Crashed reports whether this capsule is the first to run after a
// crash-restart, i.e. it may be a repetition of a partially executed
// capsule. This is the crashed() primitive of Algorithm 3.
func (c *Ctx) Crashed() bool { return c.m.crashedCap }

// Local returns the current value of persistent local s.
func (c *Ctx) Local(s int) uint64 {
	c.checkSlot(s)
	return c.m.vol[c.m.depth][s]
}

// SetLocal assigns persistent local s; the assignment is made durable by
// the capsule's terminal operation.
func (c *Ctx) SetLocal(s int, v uint64) {
	c.checkSlot(s)
	c.m.vol[c.m.depth][s] = v
	c.dirty |= 1 << s
}

// Seq returns the process's recoverable-CAS sequence number (slot 0).
func (c *Ctx) Seq() uint64 { return c.m.vol[c.m.depth][SeqSlot] }

// NextSeq increments and returns the sequence number. Within a capsule
// the increments are deterministic functions of the persisted value, so
// a repeated capsule reuses exactly the same sequence numbers, as
// required by Section 6.
func (c *Ctx) NextSeq() uint64 {
	v := c.m.vol[c.m.depth][SeqSlot] + 1
	c.SetLocal(SeqSlot, v)
	return v
}

func (c *Ctx) checkSlot(s int) {
	max := MaxSlots
	if c.m.routine(c.m.depth).Compact {
		max = MaxCompactSlots
	}
	if s < 0 || s >= max {
		panic(fmt.Sprintf("capsule: slot %d out of range (max %d)", s, max))
	}
}

// ReadOnly declares the current capsule read-only: it must issue no
// persistent write, CAS or flush. In checked mode the capsule's
// terminal panics on a violation; in fast mode the declaration is
// advisory (the read-only tier's elision guard is enforced by counter
// comparison either way). Declare probe and pure-read capsules so that
// an accidentally introduced persistent effect fails crash tests
// loudly instead of silently demoting the fast lane.
func (c *Ctx) ReadOnly() { c.ro = true }

func (c *Ctx) beginTerminal() {
	if c.terminal {
		panic("capsule: multiple terminal operations in one capsule")
	}
	c.terminal = true
	if c.ro && c.m.checkedMode() && c.m.mem.PersistEffects() != c.effects0 {
		panic(fmt.Sprintf("capsule: routine %s: persistent effect inside a declared read-only capsule",
			c.m.routine(c.m.depth).Name))
	}
}

// commit records a persisted terminal: the boundary counts as persisted
// and the effect snapshot restarts the read-only tier's clean span.
// Must run after the terminal's last persistent write.
func (c *Ctx) commit() {
	c.committed = true
	c.m.mem.Stats.Boundaries++
	c.m.effectsAt = c.m.mem.PersistEffects()
}

// writeDirty writes the dirty slots of the current frame into the copy
// that placeMask designates as valid, returning the written addresses
// (in the machine's reusable scratch buffer). Callers append any
// further commit-protocol words they write and hand the batch to
// Port.FlushAddrs — one issued flush per word, same-line repeats
// coalesced by the write-combining layer. Used by Boundary (placeMask =
// new mask) and Call (placeMask = pending mask).
func (c *Ctx) writeDirty(fr pmem.Addr, placeMask uint32) []pmem.Addr {
	m := c.m
	d := m.depth
	addrs := m.flushBuf[:0]
	for s := 0; s < MaxSlots; s++ {
		if c.dirty>>s&1 == 0 {
			continue
		}
		a := slotAddr(fr, s, placeMask>>s&1)
		m.mem.Write(a, m.vol[d][s])
		addrs = append(addrs, a)
	}
	return addrs
}

// Boundary ends the capsule, persisting all dirty locals and setting the
// next program counter. Full frames use the two-copy protocol with up to
// two fences (Section 2.3); compact frames use the single-line,
// single-fence protocol (Section 9/10 optimization).
func (c *Ctx) Boundary(nextPC int) {
	c.beginTerminal()
	c.persistBoundary(nextPC)
}

// BoundaryRO is the read-only tier's boundary: when the machine has
// issued no persistent write, successful CAS or flush since the last
// *persisted* commit, the restart point advances volatilely — no frame
// write, no flush, no fence — and the dirty locals carry into the next
// capsule's terminal. A crash then resumes from the last persisted
// boundary and re-runs the elided span, which is sound exactly because
// the span performed only reads: re-running it is externally invisible,
// and the operation linearizes at its re-execution. When the span is
// not clean, BoundaryRO persists like Boundary.
//
// The caller's obligation is that every capsule between the last
// persisted boundary and the next persisted commit tolerates
// re-execution from the top (pure reads trivially do; effectful
// successors must be idempotent, like pmap's blind value writes). A
// blind write is safe to re-run only while its operation is pending:
// once a light Invoke has completed that operation volatilely, the
// re-run can undo later operations' writes (DESIGN.md, "Open hazard
// at depth 0").
// Capsules downstream of an elided boundary must NOT rely on
// recoverable-CAS repetition detection: CheckRecovery needs the exact
// persisted descriptor and sequence number of the interrupted attempt,
// which an elided boundary does not keep (see DESIGN.md, "Where
// elision is impermissible").
func (c *Ctx) BoundaryRO(nextPC int) {
	c.beginTerminal()
	m := c.m
	if m.clean() {
		m.mem.Stats.BoundariesElided++
		m.carryDirty |= c.dirty
		m.pc[m.depth] = nextPC
		return
	}
	c.persistBoundary(nextPC)
}

// persistBoundary runs the persisted boundary protocol for the current
// frame flavour and commits.
func (c *Ctx) persistBoundary(nextPC int) {
	m := c.m
	d := m.depth
	fr := frameAddr(m.base, d)
	if m.routine(d).Compact {
		c.compactBoundary(fr, nextPC)
		return
	}
	newMask := m.mask[d] ^ c.dirty
	if c.dirty != 0 {
		addrs := c.writeDirty(fr, newMask)
		m.mem.FlushAddrs(addrs...)
		m.flushBuf = addrs[:0]
		m.mem.Fence()
	} else if m.mem.HasUnfencedFlush() {
		// The control word below is this boundary's commit: it must not
		// become durable (even by eviction) before the capsule's own
		// unfenced flushes complete.
		m.mem.Fence()
	}
	m.mem.Write(fr+frameCtlOff, packCtl(nextPC, newMask))
	m.mem.FlushFence(fr + frameCtlOff)
	m.mask[d] = newMask
	m.pc[d] = nextPC
	c.commit()
}

// compactBoundary writes all locals plus the control word into the next
// ping/pong line, control word last, then one flush and one fence.
func (c *Ctx) compactBoundary(fr pmem.Addr, nextPC int) {
	m := c.m
	d := m.depth
	if m.mem.HasUnfencedFlush() {
		// The ping/pong line is both data and commit: it can become
		// durable by eviction before the final fence, so the capsule's
		// earlier flushes must be fenced first or the boundary could
		// commit effects that were lost.
		m.mem.Fence()
	}
	e := m.epoch[d] + 1
	ln := compactLine(fr, e)
	for s := 0; s < MaxCompactSlots; s++ {
		m.mem.Write(ln+pmem.Addr(s), m.vol[d][s])
	}
	m.mem.Write(ln+compactCtlOff, packCompact(nextPC, e))
	m.mem.Flush(ln)
	m.mem.Fence()
	m.epoch[d] = e
	m.pc[d] = nextPC
	c.commit()
}

// Call ends the capsule by invoking routine rid at its capsule `entry`
// with the given argument values (placed in callee slots 1..len(args));
// when the callee Returns, its return values are stored into the
// caller's retSlots and the caller resumes at contPC. The caller's
// dirty locals are persisted as part of the call. The commit point is
// the pending word with its live bit, written once the callee frame is
// durable; the caller's own control word is committed later, by Return,
// from that pending word — so a crash anywhere in between cleanly
// repeats either the calling capsule or the callee.
func (c *Ctx) Call(rid RoutineID, entry, contPC int, args []uint64, retSlots []int) {
	c.beginTerminal()
	m := c.m
	d := m.depth
	if m.routine(d).Compact {
		panic("capsule: Call from a compact routine is not supported")
	}
	if d+1 >= MaxDepth {
		panic("capsule: call depth exceeded")
	}
	if len(retSlots) > MaxRet {
		panic("capsule: too many return slots")
	}
	fr := frameAddr(m.base, d)

	// Pending mask: flip every slot that receives a new value between
	// now and the Return commit — dirty locals, return slots, and the
	// threaded sequence number.
	flips := c.dirty | 1<<SeqSlot
	for _, s := range retSlots {
		c.checkSlot(s)
		flips |= 1 << s
	}
	pmask := m.mask[d] ^ flips
	addrs := c.writeDirty(fr, pmask)

	// Initialize the callee frame (idempotent under repetition); its
	// writes join the caller's in one flush batch under a single fence.
	// The header is rewritten only when the routine changes: for a
	// compact callee that saves its line's write-back.
	callee := m.reg.Routine(rid)
	fr2 := frameAddr(m.base, d+1)
	if m.mem.Read(fr2+frameHdrOff) != uint64(rid) {
		m.mem.Write(fr2+frameHdrOff, uint64(rid))
		addrs = append(addrs, fr2+frameHdrOff)
	}
	seq := m.vol[d][SeqSlot]
	if callee.Compact {
		if len(args) >= MaxCompactSlots {
			panic("capsule: too many args for compact callee")
		}
		// Epoch must exceed anything left in the frame by earlier calls.
		_, eA := unpackCompact(m.mem.Read(fr2 + frameCompactA + compactCtlOff))
		_, eB := unpackCompact(m.mem.Read(fr2 + frameCompactB + compactCtlOff))
		e := max(eA, eB) + 1
		ln := compactLine(fr2, e)
		m.mem.Write(ln+SeqSlot, seq)
		addrs = append(addrs, ln+SeqSlot)
		for k, a := range args {
			m.mem.Write(ln+pmem.Addr(1+k), a)
			addrs = append(addrs, ln+pmem.Addr(1+k))
		}
		m.mem.Write(ln+compactCtlOff, packCompact(entry, e))
		addrs = append(addrs, ln+compactCtlOff)
		m.epoch[d+1] = e
	} else {
		if len(args) >= MaxSlots {
			panic("capsule: too many args for callee")
		}
		m.mem.Write(slotAddr(fr2, SeqSlot, 0), seq)
		addrs = append(addrs, slotAddr(fr2, SeqSlot, 0))
		for k, a := range args {
			sa := slotAddr(fr2, 1+k, 0)
			m.mem.Write(sa, a)
			addrs = append(addrs, sa)
		}
		// Recovery guard: a frame abandoned mid-call (a program
		// reinstalled over an interrupted one) keeps its live bit, which
		// recovery would follow past the new callee. Zeroing it costs no
		// flush: it shares the control word's line.
		m.mem.Write(fr2+framePendingOff, 0)
		m.mem.Write(fr2+frameCtlOff, packCtl(entry, 0))
		addrs = append(addrs, fr2+frameCtlOff)
		m.mask[d+1] = 0
	}
	m.mem.FlushAddrs(addrs...)
	m.flushBuf = addrs[:0]
	m.mem.Fence()

	// Commit: the continuation and the live bit in one word, written
	// only now that the callee frame it makes live is durable.
	m.mem.Write(fr+framePendingOff, packPending(contPC, pmask, retSlots)|pendingLive)
	m.mem.FlushFence(fr + framePendingOff)

	// Volatile view: caller resumes at contPC with pmask once Return
	// commits; callee starts now, with zeroed locals, the threaded
	// sequence number and the arguments.
	m.mask[d] = pmask
	m.pc[d] = contPC
	m.rid[d+1] = rid
	m.pc[d+1] = entry
	m.vol[d+1] = [MaxSlots]uint64{}
	m.vol[d+1][SeqSlot] = seq
	copy(m.vol[d+1][1:], args)
	m.volOK[d+1] = true
	m.depth = d + 1
	c.commit()
}

// Return ends the capsule and the current routine, delivering vals into
// the caller's return slots (as recorded by the matching Call) and
// committing the caller's pending control word. The final capsule of a
// routine must compute its return values deterministically from
// persisted locals and recoverable operations, since a crash can repeat
// it after the values were already written.
func (c *Ctx) Return(vals ...uint64) {
	c.beginTerminal()
	m := c.m
	d := m.depth
	if d == 0 {
		panic("capsule: Return at depth 0; use Finish")
	}
	fr1 := frameAddr(m.base, d-1)
	var rs [MaxRet]int
	contPC, pmask, n := unpackPendingTo(m.mem.Read(fr1+framePendingOff), &rs)
	if len(vals) != n {
		panic(fmt.Sprintf("capsule: Return with %d values, caller expects %d", len(vals), n))
	}
	addrs := m.flushBuf[:0]
	for k := 0; k < n; k++ {
		a := slotAddr(fr1, rs[k], pmask>>rs[k]&1)
		m.mem.Write(a, vals[k])
		addrs = append(addrs, a)
	}
	// Thread the sequence number back to the caller.
	seq := m.vol[d][SeqSlot]
	sa := slotAddr(fr1, SeqSlot, pmask>>SeqSlot&1)
	m.mem.Write(sa, seq)
	addrs = append(addrs, sa)
	// The copies land in the pending side, which nothing selects yet;
	// their fence also completes the routine's own unfenced flushes
	// before the control word that commits its completion is written.
	m.mem.FlushAddrs(addrs...)
	m.flushBuf = addrs[:0]
	m.mem.Fence()

	// Commit the caller's control word, then clear the live bit: one
	// line, written in that order, so the bit clearing implies the
	// control word. A crash in between finds the callee still live and
	// repeats this capsule, rewriting the same values.
	m.mem.Write(fr1+frameCtlOff, packCtl(contPC, pmask))
	m.mem.Write(fr1+framePendingOff, 0)
	m.mem.FlushFence(fr1 + frameCtlOff)

	m.depth = d - 1
	if m.volOK[d-1] {
		for k := 0; k < n; k++ {
			m.vol[d-1][rs[k]] = vals[k]
		}
		m.vol[d-1][SeqSlot] = seq
		m.pc[d-1] = contPC
		m.mask[d-1] = pmask
	} else {
		m.loadFrame(d - 1)
	}
	c.commit()
}

// Done completes the current routine regardless of depth: Return when
// nested, Finish at depth 0. Routines that can both be Called from
// encapsulated code and Invoked directly (see Machine.Invoke) should end
// with Done.
func (c *Ctx) Done(vals ...uint64) {
	if c.m.depth == 0 {
		c.Finish(vals...)
	} else {
		c.Return(vals...)
	}
}

// DoneRO is an alias of Done, kept for its remaining callers: every
// Return commits, read-only or not.
func (c *Ctx) DoneRO(vals ...uint64) { c.Done(vals...) }

// Finish ends the depth-0 routine; Run returns vals. The completion is
// persisted (pc = PCDone) so a crash after Finish does not re-run the
// program — except under a light Invoke, where the completion stays
// volatile: a crash re-executes the routine's final capsule, which by
// capsule correctness reaches the same completion, and the dirty slots
// are carried into the next operation's first boundary.
func (c *Ctx) Finish(vals ...uint64) {
	m := c.m
	if m.depth != 0 {
		panic("capsule: Finish at depth > 0; use Return")
	}
	if m.light {
		c.beginTerminal()
		// A light completion is volatile by the Invoke methodology, not a
		// read-only-tier elision: it counts in neither boundary stat (as
		// before the read-only tier existed), so elided/op measures only
		// genuine fast-lane terminals. It still counts as a committed
		// terminal for the crashed flag, keeping the pre-existing
		// benchmark-only crash semantics.
		c.committed = true
		m.carryDirty |= c.dirty
		m.finished = true
		m.finishedLight = true
		m.rets = vals
		return
	}
	c.Boundary(PCDone)
	m.finished = true
	m.rets = vals
}

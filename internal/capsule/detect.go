package capsule

// Detectability ("Practical Detectability" in PAPERS.md): after a crash,
// a process must be able to tell for each announced operation whether it
// durably completed. The capsule machinery already holds the answer —
// the frames' live bits and committed copies are exactly the durable
// progress record — this file merely exposes it as a verdict.

// Verdict is a process's post-crash detectability report, read from its
// persisted capsule state at quiescence.
type Verdict struct {
	// Completed is the durably committed operation count read from the
	// driver frame's designated progress slot: operations with IDs below
	// it detectably completed; IDs at or above it detectably did not.
	Completed uint64
	// InFlight reports that the restart point is an unfinished span —
	// a nested frame is live or the depth-0 routine has not reached
	// PCDone — so the operation at ID Completed was interrupted and
	// will be resumed (not re-invoked) on restart.
	InFlight bool
	// Depth and PC are the raw restart coordinates, for diagnostics.
	Depth, PC int
}

// Detect reads the process's detectability verdict: the durably
// committed value of the depth-0 frame's counterSlot, plus whether an
// operation is in flight. Intended for quiescent inspection, like
// LoadState.
//
// The subtlety Detect exists to hide: mid-call, LoadState reports the
// *callee's* locals, and even at depth 0 a Call's pending slot copies
// are not yet committed — only the copies selected by the committed
// control word are durable. loadFrame reads exactly those, so the value
// returned here is the count the process would recover to after a crash
// at this instant, never an optimistic in-flight value.
func (m *Machine) Detect(counterSlot int) Verdict {
	if counterSlot < 0 || counterSlot >= MaxSlots {
		panic("capsule: Detect counter slot out of range")
	}
	m.reload()
	d, pc := m.depth, m.pc[m.depth]
	if d != 0 {
		m.loadFrame(0)
	}
	return Verdict{
		Completed: m.vol[0][counterSlot],
		InFlight:  d != 0 || pc != PCDone,
		Depth:     d,
		PC:        pc,
	}
}

// Package capsule implements the paper's capsule mechanism (Section 2.3):
// programs are partitioned into capsules separated by persisted
// boundaries, so that after a crash a process resumes from the start of
// the interrupted capsule with exactly the locals that were live at the
// boundary.
//
// A routine is an array of Capsule functions indexed by a program
// counter. Each process owns a persistent stack of frames; a frame holds
// a control word (routine id, pc, validity mask), a pending-control word
// used by the Call/Return commit protocol, and two persistent copies of
// every stack-allocated variable ("slot"), exactly as described in the
// paper. The pending word's top bit marks the frame's callee live:
// recovery finds the active frame by following live bits from depth 0,
// so the word that records the continuation is also the commit of the
// Call. Frames come in two flavours:
//
//   - Full frames use the two-copies-plus-validity-mask protocol with
//     two fences per boundary (Section 2.3).
//   - Compact frames implement the Section 9/10 optimization: all live
//     locals fit in one cache line, written slots-first-control-last so
//     that the TSO same-line persist ordering makes the control word's
//     arrival imply the slots' arrival. Two lines alternate (ping/pong,
//     distinguished by an epoch in the control word) so a partially
//     persisted boundary never damages the previous one. One flush and
//     one fence per boundary.
//
// Slot 0 of every frame is reserved for the per-process recoverable-CAS
// sequence number (Section 6: "every process has a sequence number that
// it keeps locally, and increments once per capsule"); Call/Return
// thread it through automatically so it stays monotonic process-wide.
package capsule

import "delayfree/internal/pmem"

const (
	// MaxSlots is the number of persistent locals per full frame; it is
	// bounded by the validity-mask width, mirroring the paper's
	// constant-stack-frame assumption (Section 9).
	MaxSlots = 24
	// MaxCompactSlots is the number of locals in a compact frame: one
	// cache line minus the control word.
	MaxCompactSlots = 7
	// MaxDepth is the maximum nesting of routine calls.
	MaxDepth = 8
	// MaxRet is the maximum number of values a routine can return.
	MaxRet = 4

	// SeqSlot is the reserved slot holding the process's recoverable-CAS
	// sequence number.
	SeqSlot = 0
)

// Frame geometry, in words. Every frame uses the same layout regardless
// of flavour so that crash recovery can parse it knowing only the
// routine id in the header:
//
//	line 0: [0] header (routine id)   [1] full control   [2] pending
//	line 1: compact ping line  (7 slots + compact control)
//	line 2: compact pong line  (7 slots + compact control)
//	lines 3..8: full-frame slots, two copies each (2*MaxSlots words)
const (
	frameHdrOff     = 0
	frameCtlOff     = 1
	framePendingOff = 2
	frameCompactA   = 1 * pmem.WordsPerLine
	frameCompactB   = 2 * pmem.WordsPerLine
	frameSlotsOff   = 3 * pmem.WordsPerLine
	frameLines      = 9
	// FrameWords is the per-frame footprint.
	FrameWords = frameLines * pmem.WordsPerLine

	// compactCtlOff is the control word's offset inside a compact line;
	// it is written last so same-line persist ordering covers the slots.
	compactCtlOff = 7
)

// ProcWords is the per-process footprint of the capsule area: MaxDepth
// frames.
const ProcWords = MaxDepth * FrameWords

// Control-word packing (full frames): mask:24 | pc:12 | rid:12.
func packCtl(pc int, mask uint32) uint64 {
	return uint64(mask) | uint64(pc&0xFFF)<<24
}

func unpackCtl(w uint64) (pc int, mask uint32) {
	return int(w >> 24 & 0xFFF), uint32(w & 0xFFFFFF)
}

// pendingLive is the callee-live bit of a full frame's pending word: set
// by the Call commit, cleared by the Return commit, and by nothing else.
// A compact frame never calls, so its pending word is never consulted.
const pendingLive = 1 << 63

// Pending-word packing: mask:24 | pc:12 | nret:3 | retslots:4*5, below
// the live bit.
func packPending(pc int, mask uint32, retSlots []int) uint64 {
	w := uint64(mask) | uint64(pc&0xFFF)<<24 | uint64(len(retSlots))<<36
	for k, s := range retSlots {
		w |= uint64(s&0x1F) << (39 + 5*k)
	}
	return w
}

// unpackPendingTo is the allocation-free unpack used by Return: the
// return slots land in buf, n of them valid.
func unpackPendingTo(w uint64, buf *[MaxRet]int) (pc int, mask uint32, n int) {
	pc = int(w >> 24 & 0xFFF)
	mask = uint32(w & 0xFFFFFF)
	n = int(w >> 36 & 0x7)
	for k := 0; k < n; k++ {
		buf[k] = int(w >> (39 + 5*k) & 0x1F)
	}
	return
}

// Compact control packing: pc:12 | epoch:48. Epoch strictly increases
// across boundaries *and* across reuses of the frame by later calls, so
// recovery can always identify the latest fully persisted line.
func packCompact(pc int, epoch uint64) uint64 {
	return uint64(pc&0xFFF) | epoch<<12
}

func unpackCompact(w uint64) (pc int, epoch uint64) {
	return int(w & 0xFFF), w >> 12
}

// slotAddr returns the address of copy b (0 or 1) of full-frame slot s.
func slotAddr(frame pmem.Addr, s int, b uint32) pmem.Addr {
	return frame + frameSlotsOff + pmem.Addr(2*s) + pmem.Addr(b)
}

// compactLine returns the address of the compact line used at the given
// epoch.
func compactLine(frame pmem.Addr, epoch uint64) pmem.Addr {
	if epoch%2 == 0 {
		return frame + frameCompactA
	}
	return frame + frameCompactB
}

// AllocProcAreas reserves the capsule areas for P processes and returns
// the base address of each (line-aligned). Frame d of process i lives at
// base[i]+d*FrameWords.
func AllocProcAreas(mem *pmem.Memory, P int) []pmem.Addr {
	bases := make([]pmem.Addr, P)
	for i := range bases {
		bases[i] = mem.AllocLines(MaxDepth * frameLines)
	}
	return bases
}

func frameAddr(base pmem.Addr, depth int) pmem.Addr {
	return base + pmem.Addr(depth*FrameWords)
}

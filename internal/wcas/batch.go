// Group-commit tier for the writable-CAS array: a Batcher restructures a
// combiner's N writes from N×(install flush + swing + Ptr flush) — each
// drained by the very next CAS, so nothing ever coalesces — into three
// phases with two persist points per *batch* and one per *window*:
//
//	phase 1  install all N values into line-packed extent slots,
//	         FlushRange the touched lines, one Fence   (install fence)
//	phase 2  all N tagged Ptr swings (plain CAS, no flushes issued)
//	phase 3  deferred: accumulate the swung Ptr addresses; CloseWindow
//	         FlushAddrs them (per-line dedup) + one Fence (close fence)
//
// The install fence is load-bearing: once a swing executes, its Ptr word
// can become durable at ANY time — eviction under the shared-cache
// model, or a concurrent reader's link-and-persist — so every slot a
// swing could durably name must already be durable. Fencing once for
// the whole batch preserves the array's "durable Ptr ⇒ durable slot"
// invariant batch-wide at 1/N of the per-op fence cost.
//
// Slot recycling inside the deferred window is the subtle part. A slot
// replaced by a swing whose Ptr flush has not yet been fenced must not
// be reinstalled: a crash could then retain the *old* Ptr word (still
// naming the slot) alongside a newer durable Ptr word naming the same
// slot's reinstallation — two durable entries, one slot, and Recover
// panics. So retirees go on a deferred-retire list (winRet) released
// only by CloseWindow, after the close fence has made every swing of
// the window durable; extent lines count those quarantined slots in
// their live counters, which is exactly the recycle guard: a line
// cannot be reused while any in-window slot lives on it. If allocation
// would otherwise starve, the Batcher inserts a mini-fence (an early
// CloseWindow, counted in MiniFences) rather than ever reusing an
// in-window slot.
package wcas

import (
	"fmt"

	"delayfree/internal/pmem"
)

type batchEnt struct {
	j    int
	slot uint32
}

// Batcher is a group-commit handle over a contiguous claim of extent
// lines. It wraps a Handle (same process, same port) and is, like the
// Handle, not safe for concurrent use. The Batcher's bookkeeping
// (cursors, live counters, deferred lists) is volatile host state:
// after a full-system crash, call Array.Recover and build a fresh
// Batcher — NewBatcher rebuilds per-line liveness from the persistent
// Ptr array with reads only, so it is safe to re-run under replay.
type Batcher struct {
	h    *Handle
	a    *Array
	port *pmem.Port

	firstLine int // extent line index of this claim's first line
	nLines    int
	liveCnt   []uint32 // per claimed line: live slots + in-window retirees
	cursor    int      // line being bump-filled, -1 before first alloc
	fill      int      // words used on cursor line

	window int // deferred ops before CloseWindow auto-fires

	open      bool
	pend      []batchEnt
	committed int      // swings of pend already performed (crash-atomic)
	touched   []uint64 // line indices of installs this batch, dedup'd

	winPtrs []pmem.Addr // swung Ptr words awaiting the close fence
	winRet  []uint32    // replaced slots quarantined until the close fence
	winOps  int

	// announced is CloseWindow's scratch: the slots its announcement scan
	// found named by a resolved announcement. Batcher-owned because a
	// close can run once per combiner span.
	announced map[uint32]bool

	// MiniFences counts early window closes forced by the recycle
	// guard (allocation would otherwise reuse an in-window slot).
	MiniFences uint64
}

// NewBatcher claims the next `lines` extent lines for h's process and
// returns a group-commit handle over them with the given deferral
// window (maximum swings left unfenced; CommitBatch closes the window
// automatically when it fills). Claims are host-side and sequential;
// after a full-system crash Recover resets the claim cursor and every
// combiner re-claims. Per-line liveness is rebuilt by scanning Ptr for
// slots inside the claim — reads only, so replay-safe.
func (a *Array) NewBatcher(h *Handle, lines, window int) *Batcher {
	if a.extLines == 0 {
		panic("wcas: NewBatcher on an array built without an extent (use NewWithExtent)")
	}
	if a.extClaim+lines > a.extLines {
		panic(fmt.Sprintf("wcas: batch extent exhausted (claim %d+%d of %d lines); size NewWithExtent for all combiners", a.extClaim, lines, a.extLines))
	}
	if window < 1 {
		window = 1
	}
	b := &Batcher{
		h: h, a: a, port: h.port,
		firstLine: a.extClaim, nLines: lines,
		liveCnt: make([]uint32, lines),
		cursor:  -1, fill: pmem.WordsPerLine,
		window:    window,
		announced: make(map[uint32]bool, a.P),
	}
	a.extClaim += lines
	lo := uint32(a.extBase + b.firstLine*pmem.WordsPerLine)
	hi := lo + uint32(lines*pmem.WordsPerLine)
	for j := 0; j < a.M; j++ {
		s := ptrSlot(h.port.Read(a.ptr + pmem.Addr(j)))
		if s >= lo && s < hi {
			b.liveCnt[int(s-lo)/pmem.WordsPerLine]++
		}
	}
	return b
}

// Open reports whether a batch is in progress.
func (b *Batcher) Open() bool { return b.open }

// Deferred reports whether any swing of the current window still awaits
// the close fence (a combiner must then CloseWindow before it
// acknowledges any producer of the window).
func (b *Batcher) Deferred() bool {
	return b.winOps > 0 || len(b.winPtrs) > 0 || len(b.winRet) > 0
}

// BeginBatch opens a batch. An already-open batch (a capsule replay
// re-entering the combiner body after a crash-restart of the routine)
// is aborted first: its un-swung installs are volatile-only and its
// swung prefix is already recorded in the window, so dropping the
// remainder is exactly the crash-atomic prefix semantics.
func (b *Batcher) BeginBatch() {
	if b.open {
		b.Abort()
	}
	b.open = true
}

// BatchWrite installs v for object j into a packed extent slot. The
// write is volatile until CommitBatch; j's visible value is unchanged
// until the swing phase. Writing the same j twice in one batch is
// allowed (both swings execute; the later one wins, retiring the
// earlier slot through the same deferred path).
func (b *Batcher) BatchWrite(j int, v uint64) {
	if !b.open {
		panic("wcas: BatchWrite outside BeginBatch/CommitBatch")
	}
	b.h.checkObj(j)
	s := b.alloc()
	addr := b.a.b + pmem.Addr(s)
	b.port.Write(addr, v)
	ln := pmem.LineOf(addr)
	if n := len(b.touched); n == 0 || b.touched[n-1] != ln {
		b.touched = append(b.touched, ln)
	}
	b.pend = append(b.pend, batchEnt{j: j, slot: s})
}

// CommitBatch runs phases 1b–3 for the open batch: one FlushRange-
// equivalent pass over the touched lines and one fence persist every
// installed slot (install fence); then every swing executes as a tagged
// CAS with no flush issued — the swung Ptr words and replaced slots are
// deferred onto the window lists. When the window reaches its cap the
// close fires here. Returns the number of swings that won (a swing
// loses only to a concurrent classic Write on the same object).
func (b *Batcher) CommitBatch() int {
	if !b.open {
		panic("wcas: CommitBatch without BeginBatch")
	}
	if len(b.pend) == 0 {
		b.open = false
		return 0
	}
	a, p := b.a, b.port
	for _, ln := range b.touched {
		p.Flush(pmem.Addr(ln) * pmem.WordsPerLine)
	}
	p.Fence() // install fence: every packed slot durable before any swing
	applied := 0
	for i := b.committed; i < len(b.pend); i++ {
		e := b.pend[i]
		pa := a.ptr + pmem.Addr(e.j)
		pw := p.Read(pa)
		//persist:announce
		if p.CAS(pa, pw, packPtr(e.slot, ptrTag(pw)+1)) {
			b.winPtrs = append(b.winPtrs, pa)
			b.winRet = append(b.winRet, ptrSlot(pw))
			applied++
		} else {
			// Lost to a concurrent classic Write: the slot was never
			// referenced by Ptr, so it can be reused immediately.
			b.unalloc(e.slot)
		}
		b.committed = i + 1
	}
	b.winOps += applied
	b.pend = b.pend[:0]
	b.touched = b.touched[:0]
	b.committed = 0
	b.open = false
	if b.winOps >= b.window {
		b.CloseWindow()
	}
	return applied
}

// Abort discards the open batch. Swings already performed (a replayed
// CommitBatch interrupted by a crash-restart) stay in the window —
// they are real, visible updates; only the un-swung remainder is
// dropped and its slots reclaimed (they were never referenced by Ptr,
// and their installs were volatile-only).
func (b *Batcher) Abort() {
	for i := b.committed; i < len(b.pend); i++ {
		b.unalloc(b.pend[i].slot)
	}
	b.pend = b.pend[:0]
	b.touched = b.touched[:0]
	b.committed = 0
	b.open = false
}

// CloseWindow persists the window: one flush per distinct Ptr line
// (FlushAddrs dedups per-line) and one fence make every deferred swing
// durable, after which the quarantined retirees are released. Announced
// retirees survive the release — a concurrent reader may hold a
// resolved announcement naming one (the classic recycle quarantine,
// replicated here); they stay on the list for the next close.
//
// A close may come at any point between two batches, not only at a full
// window: the ingress group combiner closes inside the span that applied
// a batch whenever no full next batch is waiting, so at low load every
// batch pays its own close. The path is allocation-free for that reason.
//
//persist:fence
func (b *Batcher) CloseWindow() {
	if len(b.winPtrs) == 0 && len(b.winRet) == 0 {
		b.winOps = 0
		return
	}
	a, p := b.a, b.port
	p.FlushAddrs(b.winPtrs...)
	p.Fence() // close fence: every swing of the window is now durable
	// Announcement scan, as in classic recycle: help unresolved
	// announcements, then quarantine retirees a resolved announcement
	// names (the reader may still operate through that slot).
	clear(b.announced)
	for j := 0; j < a.P; j++ {
		aj := a.annAddr(j)
		w := p.Read(aj)
		if w == 0 {
			// Never-written announcement word (possible only on images
			// predating the explicit idle init); zero would decode as
			// "slot 0 announced", pinning it forever.
			continue
		}
		if annHelp(w) {
			ptr := ptrSlot(p.Read(a.ptr + pmem.Addr(annIndex(w))))
			p.CAS(aj, w, packAnn(ptr, annSeq(w), false))
			w = p.Read(aj)
		}
		if idx := annIndex(w); !annHelp(w) && idx < uint32(a.slots) {
			b.announced[idx] = true
		}
	}
	keep := b.winRet[:0] // filtered in place: keep never outruns the read index
	for _, s := range b.winRet {
		if b.announced[s] {
			keep = append(keep, s)
			continue
		}
		b.unalloc(s)
	}
	b.winRet = keep
	b.winPtrs = b.winPtrs[:0]
	b.winOps = 0
}

// alloc returns a free slot for an install: bump-fill the cursor line,
// else claim the next dead line (liveCnt 0, the recycle guard — a line
// with in-window retirees is not dead), else mini-fence (close the
// window early so retirees release) and rescan, else borrow a scattered
// slot from the wrapped handle's classic free list.
func (b *Batcher) alloc() uint32 {
	if b.cursor >= 0 && b.fill < pmem.WordsPerLine {
		s := b.lineBase(b.cursor) + uint32(b.fill)
		b.fill++
		b.liveCnt[b.cursor]++
		return s
	}
	if ln := b.nextDeadLine(); ln >= 0 {
		b.cursor, b.fill = ln, 1
		b.liveCnt[ln]++
		return b.lineBase(ln)
	}
	if b.Deferred() {
		// Recycle guard: never reuse a slot an unfenced swing replaced.
		// Close the window (mini-fence) so quarantined retirees release,
		// then retry the lap scan.
		b.MiniFences++
		b.CloseWindow()
		if ln := b.nextDeadLine(); ln >= 0 {
			b.cursor, b.fill = ln, 1
			b.liveCnt[ln]++
			return b.lineBase(ln)
		}
	}
	// Extent full of live values: borrow from the classic scattered
	// pool. Never touches h.freePtr (the classic Write install slot).
	if n := len(b.h.free); n > 0 {
		s := b.h.free[n-1]
		b.h.free = b.h.free[:n-1]
		return s
	}
	panic(fmt.Sprintf("wcas: batch extent exhausted (%d lines, all live) and classic pool empty; size the extent above the live-object working set", b.nLines))
}

// unalloc returns a slot whose install will never be (or is no longer)
// referenced by a durable Ptr word: batch-owned extent slots decrement
// their line's live counter; anything else (scattered borrows, classic
// slots retired by our swings, foreign-claim extent slots) goes to the
// wrapped handle's scattered free list.
func (b *Batcher) unalloc(s uint32) {
	lo := b.lineBase(0)
	if s >= lo && s < lo+uint32(b.nLines*pmem.WordsPerLine) {
		b.liveCnt[int(s-lo)/pmem.WordsPerLine]--
		return
	}
	b.h.free = append(b.h.free, s)
}

func (b *Batcher) lineBase(ln int) uint32 {
	return uint32(b.a.extBase + (b.firstLine+ln)*pmem.WordsPerLine)
}

// nextDeadLine scans one lap from the cursor for a line with no live
// slots and no in-window retirees.
func (b *Batcher) nextDeadLine() int {
	for i := 1; i <= b.nLines; i++ {
		ln := (b.cursor + i) % b.nLines
		if b.liveCnt[ln] == 0 {
			return ln
		}
	}
	return -1
}

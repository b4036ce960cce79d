// Package wcas implements Section 8 of the paper: M *writable* CAS
// objects built from M+Θ(P²) ordinary CAS objects (Algorithm 8, after
// Aghazadeh, Golab and Woelfel), with constant computation delay.
//
// The construction eliminates Write/CAS races by indirection: object j's
// value lives in slot B[Ptr[j]]; Read and CAS resolve the slot through a
// hazard-pointer-style announcement and operate on it with plain CAS; a
// Write installs its value in a private free slot and swings Ptr[j] to
// it — so a racy Write never touches the word a concurrent CAS targets,
// and after this transformation every shared write in a program can be
// expressed as a CAS, which is what lets the paper's persistent
// simulations cover programs with writes (Section 4).
//
// Slot recycling follows the paper's amortized scheme: each process owns
// 2P slots; when its free list empties, it scans the announcement array
// (helping unresolved announcements along the way), quarantines
// announced slots, and reclaims the rest — O(P) work at most once per P
// writes.
//
// One deviation: Ptr entries carry an installation tag
// (⟨slot:32 | tag:32⟩) so a stale Write's swing CAS cannot succeed after
// its expected slot has been recycled and reinstalled (the ABA defence
// the original obtains from its more elaborate ownership argument).
//
// A second, for recovery: the recycle scan decides "this announced slot
// is mine to quarantine" from membership in the handle's own volatile
// retired list, not from the slot's persistent owner word. Recover
// stamps an owner on every pool slot and installing a slot into Ptr
// leaves that stamp in place, so the owner word alone would let a
// slot's former owner and the process swinging it out write one status
// word concurrently; a slot live in Ptr is in nobody's retired list.
package wcas

import (
	"fmt"

	"delayfree/internal/pmem"
)

// Announcement packing: help:1 | seq:31 | index:32.
func packAnn(index uint32, seq uint32, help bool) uint64 {
	w := uint64(index) | uint64(seq&0x7FFFFFFF)<<32
	if help {
		w |= 1 << 63
	}
	return w
}

func annIndex(w uint64) uint32 { return uint32(w) }
func annSeq(w uint64) uint32   { return uint32(w>>32) & 0x7FFFFFFF }
func annHelp(w uint64) bool    { return w>>63 == 1 }

// Status packing: announced:1 | owner+1:32. Owner is stored off by one
// so that the zero word means "unowned" (a live slot, or one never yet
// recycled) — recovery and the recycle scan can then distinguish a slot
// genuinely owned by process 0 from an untouched status word.
func packStatus(owner int, announced bool) uint64 {
	w := uint64(uint32(owner + 1))
	if announced {
		w |= 1 << 62
	}
	return w
}

func statusOwner(w uint64) int      { return int(uint32(w)) - 1 }
func statusAnnounced(w uint64) bool { return w>>62&1 == 1 }

// Ptr packing: slot:32 | tag:32.
func packPtr(slot, tag uint32) uint64 { return uint64(slot) | uint64(tag)<<32 }
func ptrSlot(w uint64) uint32         { return uint32(w) }
func ptrTag(w uint64) uint32          { return uint32(w >> 32) }

// Array is a set of M writable CAS objects shared by P processes.
type Array struct {
	M, P   int
	slots  int // M + 2P², plus the batch extent when present
	b      pmem.Addr
	ptr    pmem.Addr
	ann    pmem.Addr // A[P], one line each
	status pmem.Addr

	// Batch extent (NewWithExtent): extLines line-aligned lines of slots
	// at indices [extBase, slots), owned by Batchers rather than by the
	// per-process scattered pools. extClaim is the host-side cursor of
	// lines already claimed by NewBatcher; Recover resets it.
	extBase  int
	extLines int
	extClaim int

	// Durable enables the manual-flush protocol for the shared-cache
	// model: a successful object CAS flushes the slot it wrote; a Write
	// flushes the installed slot before the Ptr swing (the swing CAS
	// drains it, Section 10's fence elision) and flushes the swung Ptr
	// word afterwards, drained by the process's next CAS — always before
	// the replaced slot can be reinstalled; and every slot resolution
	// link-and-persists the Ptr word it dereferences (see getObjectIdx).
	// Together these guarantee that whenever a Ptr entry is durable, the
	// value in the slot it names is too, no two durable entries share a
	// slot, and no operation commits durably through a volatile swing —
	// so Recover sees consistent objects after a full-system crash.
	// Leave false in the private model or under Port.Auto.
	Durable bool
}

// New creates the array, with object j initialized to init(j).
// Slot j initially backs object j; each process additionally owns 2P
// private slots.
func New(mem *pmem.Memory, port *pmem.Port, M, P int, init func(j int) uint64) *Array {
	return NewWithExtent(mem, port, M, P, 0, init)
}

// NewWithExtent creates the array with an additional batch extent of
// extentLines line-aligned slot lines appended after the classic slots.
// Extent slots belong to no per-process pool; Batchers claim them in
// whole lines (NewBatcher) so group-commit installs pack 8 values per
// line and one FlushRange persists a whole batch. extentLines == 0
// degenerates to New.
func NewWithExtent(mem *pmem.Memory, port *pmem.Port, M, P, extentLines int, init func(j int) uint64) *Array {
	a := &Array{M: M, P: P, slots: M + 2*P*P}
	if extentLines > 0 {
		// Round the classic region up to a line boundary so the extent
		// starts line-aligned inside b; allocate b itself line-aligned.
		base := (a.slots + pmem.WordsPerLine - 1) &^ (pmem.WordsPerLine - 1)
		a.extBase = base
		a.extLines = extentLines
		a.slots = base + extentLines*pmem.WordsPerLine
		a.b = mem.AllocLines(uint64(a.slots) / pmem.WordsPerLine)
	} else {
		a.b = mem.Alloc(uint64(a.slots))
	}
	a.ptr = mem.Alloc(uint64(M))
	a.ann = mem.AllocLines(uint64(P))
	a.status = mem.Alloc(uint64(a.slots))
	for j := 0; j < M; j++ {
		port.Write(a.b+pmem.Addr(j), init(j))
		port.Write(a.ptr+pmem.Addr(j), packPtr(uint32(j), 0))
	}
	// Idle the announcement array explicitly: the zero word decodes as
	// "slot 0 announced at seq 0", which conservative scanners (the
	// Batcher's CloseWindow quarantine) would honor forever. Recover
	// does the same after every crash.
	for p := 0; p < P; p++ {
		port.Write(a.annAddr(p), packAnn(0xFFFFFFFF, 0, false))
	}
	// Persist the initial image: a crash before the first explicit flush
	// must not revert the array to zeroes in the shared-cache model. The
	// regions are not necessarily line-aligned (Alloc packs), so flush
	// every line the words span, not a stride from the base.
	port.FlushRange(a.b, uint64(M))
	port.FlushRange(a.ptr, uint64(M))
	port.FlushRange(a.ann, uint64(P)*pmem.WordsPerLine)
	port.Fence()
	return a
}

// SetDurable toggles the manual-flush durability protocol. Call before
// concurrent use.
func (a *Array) SetDurable(d bool) { a.Durable = d }

func (a *Array) annAddr(p int) pmem.Addr { return a.ann + pmem.Addr(p)*pmem.WordsPerLine }

// Peek returns the current value of object j by resolving its slot
// directly, without the announcement protocol. Quiescent helper for
// tests, recovery audits and shadow-model checks; not linearizable
// under concurrency.
func (a *Array) Peek(port *pmem.Port, j int) uint64 {
	return port.Read(a.b + pmem.Addr(ptrSlot(port.Read(a.ptr+pmem.Addr(j)))))
}

// Recover rebuilds the slot-ownership state after a full-system crash
// and returns a fresh 2P-slot pool for every process (pass pool[pid] to
// NewHandleWithPool). It must run quiescently — every process stopped,
// as the runtime's full-system crash guarantees — because the volatile
// handle state (free lists, retired lists, announcement sequence) of
// every process died with it and per-slot ownership can only be
// reassigned globally.
//
// The persistent truth is the Ptr array: the M slots it names are live
// (each backs exactly one object); every other slot is free. Recover
// reassigns the free slots round-robin, resets the status words to
// match, and idles the announcement array (no process survives, so no
// hazards survive). It performs only reads of Ptr, so an injected crash
// during recovery simply reruns it.
func (a *Array) Recover(port *pmem.Port) [][]uint32 {
	live := make([]bool, a.slots)
	for j := 0; j < a.M; j++ {
		s := ptrSlot(port.Read(a.ptr + pmem.Addr(j)))
		if int(s) >= a.slots {
			panic(fmt.Sprintf("wcas: recover found Ptr[%d] naming slot %d out of %d", j, s, a.slots))
		}
		if live[s] {
			panic(fmt.Sprintf("wcas: recover found slot %d backing two objects; was the array run without Durable in the shared model?", s))
		}
		live[s] = true
	}
	pools := make([][]uint32, a.P)
	next := 0
	for s := 0; s < a.slots; s++ {
		if live[s] {
			port.Write(a.status+pmem.Addr(s), 0) // unowned
			continue
		}
		if a.extLines > 0 && s >= a.extBase {
			// Extent slots are never pooled: Batchers re-claim their
			// lines (NewBatcher rebuilds per-line liveness from Ptr).
			port.Write(a.status+pmem.Addr(s), 0)
			continue
		}
		pools[next] = append(pools[next], uint32(s))
		port.Write(a.status+pmem.Addr(s), packStatus(next, false))
		next = (next + 1) % a.P
	}
	a.extClaim = 0
	for p := 0; p < a.P; p++ {
		if len(pools[p]) < 2 {
			panic(fmt.Sprintf("wcas: recover left process %d with %d slots", p, len(pools[p])))
		}
		port.Write(a.annAddr(p), packAnn(0xFFFFFFFF, 0, false))
	}
	return pools
}

// Handle is one process's access to the array, carrying its slot pool.
// Not safe for concurrent use.
type Handle struct {
	a       *Array
	port    *pmem.Port
	pid     int
	freePtr uint32
	free    []uint32
	retired []uint32
	seq     uint32
}

// NewHandle creates process pid's handle. The process's 2P private
// slots are M + pid*2P ... M + (pid+1)*2P − 1.
func (a *Array) NewHandle(port *pmem.Port, pid int) *Handle {
	h := &Handle{a: a, port: port, pid: pid}
	base := uint32(a.M + pid*2*a.P)
	h.freePtr = base
	for s := base + 1; s < base+uint32(2*a.P); s++ {
		h.free = append(h.free, s)
	}
	return h
}

// NewHandleWithPool creates process pid's handle over an explicit slot
// pool, as returned by Recover after a full-system crash. The pool must
// be disjoint from every other process's and from the live slots.
func (a *Array) NewHandleWithPool(port *pmem.Port, pid int, pool []uint32) *Handle {
	if len(pool) < 2 {
		panic("wcas: handle pool needs at least two slots")
	}
	h := &Handle{a: a, port: port, pid: pid}
	h.freePtr = pool[0]
	h.free = append(h.free, pool[1:]...)
	return h
}

// getObjectIdx resolves object j to its current slot, protected by the
// announcement (Algorithm 8, getObjectIdx).
func (h *Handle) getObjectIdx(j int) uint32 {
	a, p := h.a, h.port
	aa := a.annAddr(h.pid)
	cur := p.Read(aa)
	h.seq = annSeq(cur) + 1
	want := packAnn(uint32(j), h.seq, true)
	if !p.CAS(aa, cur, want) {
		panic("wcas: announce CAS failed; announcement protocol violated")
	}
	ptr := ptrSlot(p.Read(a.ptr + pmem.Addr(j)))
	if a.Durable {
		// Link-and-persist: flush the Ptr word before operating through
		// it; the resolve CAS below drains the flush. Without this, a
		// concurrent process could durably complete an operation on a
		// slot whose installing swing was still volatile — a crash would
		// then revert Ptr and lose the completed operation. The writer's
		// own post-swing flush is only drained by the *writer's* next
		// CAS, which is not ordered against other processes' commits.
		p.Flush(a.ptr + pmem.Addr(j))
	}
	p.CAS(aa, want, packAnn(ptr, h.seq, false))
	// Either we resolved it or a helper did; the index is now stable.
	return annIndex(p.Read(aa))
}

// release clears the hazard so the resolved slot can be reclaimed once
// the operation is done.
func (h *Handle) release() {
	a, p := h.a, h.port
	aa := a.annAddr(h.pid)
	cur := p.Read(aa)
	h.seq++
	p.CAS(aa, cur, packAnn(0xFFFFFFFF, h.seq, false))
}

// Read returns the value of object j.
func (h *Handle) Read(j int) uint64 {
	h.checkObj(j)
	idx := h.getObjectIdx(j)
	v := h.port.Read(h.a.b + pmem.Addr(idx))
	h.release()
	return v
}

// ReadVolatile returns the value of object j through an optimistic
// tagged double-read: read the ⟨slot, tag⟩ Ptr word, read the slot,
// and re-read the Ptr word — if it is unchanged, the slot backed
// object j for the whole interval (the tag increments on every swing,
// so Ptr-word equality rules out the slot having been recycled and
// reinstalled in between) and the value read is a linearizable read of
// j. No announcement, no CAS, no flush, no fence: zero persistent
// effects, so a capsule performing only ReadVolatiles stays on the
// read-only fast lane.
//
// The flush-free invariant (the Durable-mode caveat): Read's
// link-and-persist flush exists so that an operation that *durably
// commits evidence* derived from the resolved value first persists the
// Ptr link it dereferenced. ReadVolatile skips it, so the value may
// derive from a swing that is still volatile — a crash can revert it.
// That is safe exactly for operations that persist no evidence derived
// from the read before the observed writer's own commit fences: pure
// lookups whose boundaries ride the capsule read-only tier (a crash
// erases every trace of the lookup, whose re-execution is a fresh,
// equally valid linearization), and probe prefixes whose subsequent
// durable phase depends only on monotone state (pmap's key cells).
// Operations that persist evidence derived from the value — e.g. a
// successful conditional update keyed on it — must use Read, whose
// resolve CAS drains the Ptr flush before the value can be acted on.
func (h *Handle) ReadVolatile(j int) uint64 {
	h.checkObj(j)
	a, p := h.a, h.port
	pa := a.ptr + pmem.Addr(j)
	for {
		pw := p.Read(pa)
		v := p.Read(a.b + pmem.Addr(ptrSlot(pw)))
		if p.Read(pa) == pw {
			return v
		}
	}
}

// CAS performs a compare-and-swap on object j. In Durable mode a
// successful CAS flushes the slot it wrote; the flush is left unfenced
// for the caller's commit protocol (a capsule boundary, or any
// subsequent CAS of this process) to drain.
func (h *Handle) CAS(j int, old, new uint64) bool {
	h.checkObj(j)
	idx := h.getObjectIdx(j)
	ok := h.port.CAS(h.a.b+pmem.Addr(idx), old, new)
	if ok && h.a.Durable {
		h.port.Flush(h.a.b + pmem.Addr(idx))
	}
	h.release()
	return ok
}

// Write sets object j to v unconditionally (Algorithm 8, Write): the
// value is installed in a private slot and Ptr[j] is swung to it. If the
// swing loses to a concurrent Write, this write linearizes immediately
// before the winner.
func (h *Handle) Write(j int, v uint64) {
	h.checkObj(j)
	a, p := h.a, h.port
	newPtr := h.freePtr
	slotAddr := a.b + pmem.Addr(newPtr)
	if !p.CAS(slotAddr, p.Read(slotAddr), v) {
		panic("wcas: private slot CAS failed")
	}
	if a.Durable {
		// The swing CAS below drains this flush, so the installed value
		// is durable before the swing can be.
		p.Flush(slotAddr)
	}
	pw := p.Read(a.ptr + pmem.Addr(j))
	if p.CAS(a.ptr+pmem.Addr(j), pw, packPtr(newPtr, ptrTag(pw)+1)) {
		if a.Durable {
			// Drained by this process's next CAS — in particular before
			// the replaced slot can be reinstalled anywhere, so a durable
			// Ptr entry never names a slot whose content has moved on.
			p.Flush(a.ptr + pmem.Addr(j))
		}
		h.freePtr = h.recycle(ptrSlot(pw))
	}
	// On failure the write linearizes before the interfering write;
	// the private slot stays ours and is reused next time.
}

func (h *Handle) checkObj(j int) {
	if j < 0 || j >= h.a.M {
		panic(fmt.Sprintf("wcas: object %d out of range [0,%d)", j, h.a.M))
	}
}

// isRetired reports whether slot s is in this handle's retired list:
// the only slots whose status word the recycle scan may mark.
func (h *Handle) isRetired(s uint32) bool {
	for _, r := range h.retired {
		if r == s {
			return true
		}
	}
	return false
}

// recycle retires a slot this process just took ownership of and
// returns a fresh free slot, scanning announcements when the free list
// is empty (Algorithm 8, recycle).
func (h *Handle) recycle(old uint32) uint32 {
	a, p := h.a, h.port
	h.retired = append(h.retired, old)
	sa := a.status + pmem.Addr(old)
	if !p.CAS(sa, p.Read(sa), packStatus(h.pid, false)) {
		panic("wcas: status CAS failed")
	}
	if len(h.free) == 0 {
		var annList []uint32
		for j := 0; j < a.P; j++ {
			aj := a.annAddr(j)
			w := p.Read(aj)
			if annHelp(w) {
				// Help resolve the pending announcement.
				ptr := ptrSlot(p.Read(a.ptr + pmem.Addr(annIndex(w))))
				p.CAS(aj, w, packAnn(ptr, annSeq(w), false))
			}
			w = p.Read(aj)
			idx := annIndex(w)
			if !annHelp(w) && idx < uint32(a.slots) {
				st := a.status + pmem.Addr(idx)
				sw := p.Read(st)
				if h.isRetired(idx) && !statusAnnounced(sw) {
					annList = append(annList, idx)
					if !p.CAS(st, sw, packStatus(h.pid, true)) {
						panic("wcas: status mark CAS failed")
					}
				}
			}
		}
		var keep []uint32
		for _, ptr := range h.retired {
			if statusAnnounced(p.Read(a.status + pmem.Addr(ptr))) {
				keep = append(keep, ptr)
			} else {
				h.free = append(h.free, ptr)
			}
		}
		h.retired = keep
		for _, idx := range annList {
			st := a.status + pmem.Addr(idx)
			if !p.CAS(st, p.Read(st), packStatus(h.pid, false)) {
				panic("wcas: status clear CAS failed")
			}
		}
	}
	if len(h.free) == 0 {
		panic("wcas: slot pool exhausted; 2P slots per process should always suffice")
	}
	s := h.free[len(h.free)-1]
	h.free = h.free[:len(h.free)-1]
	return s
}

// Package rcas implements recoverable compare-and-swap objects
// (Section 4 and Appendix A of the paper).
//
// A recoverable CAS lets a process determine, after a crash, whether a
// CAS it may have issued actually took effect. Every CAS writes not
// just the new value but the caller's process id and a per-process
// monotonically increasing sequence number; before overwriting a value,
// the writer *notifies* the previous owner of its success through an
// announcement array. Recovery reads the object (self-notifying if the
// process still owns it) and then its own announcement slot.
//
// Two implementations are provided:
//
//   - Space: the paper's Algorithm 1. Announcement slots are updated
//     with CAS, which lets a single O(P)-word global array serve every
//     object (the paper's "O(P) space instead of O(P²)") and makes
//     recovery O(1).
//   - Attiya: the Attiya–Ben Baruch–Hendler (PODC 2018) algorithm, with
//     the sequence-number tweak the paper describes. Notifications are
//     plain writes into a per-(owner,notifier) matrix, so recovery must
//     scan a row: O(P) recovery, O(P²) space, but no CAS on the
//     announcement path — the variant the paper's experiments used
//     because it was slightly faster.
//
// Values, process ids and sequence numbers are packed into one 64-bit
// word (val:28 | pid:8 | seq:28), standing in for the double-word CAS
// the paper assumes (Section 9, "CAS"). The packed triple makes every
// successful CAS write a fresh (pid, seq) pair, which provides the
// ABA-freedom the algorithms require (Section 4) even when values
// (e.g. recycled queue nodes) repeat.
//
// Ids in [P, 2P) are per-process *anonymous aliases*, used by the
// Section 7 optimization: a CAS issued through CasAnon still notifies
// the previous owner but directs notifications about itself to a dummy
// slot, so it can never clobber the pending notification of the
// process's recoverable executor CAS.
package rcas

import (
	"fmt"

	"delayfree/internal/pmem"
)

// Field widths of the packed triple.
const (
	ValBits = 28
	PidBits = 8
	SeqBits = 28

	// MaxVal is the largest representable value payload.
	MaxVal = 1<<ValBits - 1
	// MaxSeq is the largest representable sequence number.
	MaxSeq = 1<<SeqBits - 1
	// MaxP is the largest supported process count (half the pid space;
	// the upper half holds the anonymous aliases).
	MaxP = 1 << (PidBits - 1)
)

// Pack builds the ⟨val, pid, seq⟩ triple stored in a recoverable CAS
// cell.
func Pack(val uint64, pid int, seq uint64) uint64 {
	if val > MaxVal {
		panic(fmt.Sprintf("rcas: value %d exceeds %d bits", val, ValBits))
	}
	if seq > MaxSeq {
		panic(fmt.Sprintf("rcas: sequence number %d exceeds %d bits", seq, SeqBits))
	}
	return val | uint64(pid)<<ValBits | seq<<(ValBits+PidBits)
}

// Val extracts the value payload of a packed triple.
func Val(x uint64) uint64 { return x & MaxVal }

// Pid extracts the writer id of a packed triple.
func Pid(x uint64) int { return int(x >> ValBits & (1<<PidBits - 1)) }

// Seq extracts the sequence number of a packed triple.
func Seq(x uint64) uint64 { return x >> (ValBits + PidBits) }

// Announcement-word packing: seq:63 | flag:1.
func packA(seq uint64, flag bool) uint64 {
	w := seq << 1
	if flag {
		w |= 1
	}
	return w
}

func unpackA(w uint64) (seq uint64, flag bool) { return w >> 1, w&1 != 0 }

// CasSpace is the common interface of the two recoverable CAS
// implementations. A cell is any persistent word holding a packed
// triple; the space provides the announcement state shared by all cells.
//
// All operations take the calling process's memory port; a CasSpace
// itself is immutable after construction and safe for concurrent use.
type CasSpace interface {
	// ReadFull returns the cell's packed triple. Callers keep the full
	// triple as the expected value for a subsequent Cas, which is what
	// makes their CAS ABA-free.
	ReadFull(p *pmem.Port, x pmem.Addr) uint64
	// Cas attempts to replace the cell's triple exp with
	// ⟨newVal, pid, seq⟩, notifying the previous owner first
	// (Algorithm 1 lines 10–14). seq must be fresh and monotonically
	// increasing per process.
	Cas(p *pmem.Port, x pmem.Addr, exp, newVal, seq uint64, pid int) bool
	// CasAnon is Cas under the process's anonymous alias: it notifies
	// the previous owner but cannot be recovered and never disturbs
	// the process's own pending notification (Section 7).
	CasAnon(p *pmem.Port, x pmem.Addr, exp, newVal, seq uint64, pid int) bool
	// Recover returns ⟨seq, flag⟩ per the paper's sequential
	// specification: flag means seq is the sequence number of the
	// process's last successful CAS; otherwise every successful CAS by
	// the process has sequence number < seq.
	Recover(p *pmem.Port, x pmem.Addr, pid int) (seq uint64, flag bool)
	// CheckRecovery is Algorithm 2: it reports whether the CAS that
	// process pid issued (or was about to issue) with sequence number
	// seq against cell x is known to have executed.
	CheckRecovery(p *pmem.Port, x pmem.Addr, seq uint64, pid int) bool
	// P returns the process count the space was built for.
	P() int
	// SetDurable toggles the manual-flush durability protocol (see
	// Space.Durable). Call before concurrent use.
	SetDurable(bool)
}

// Alias returns the anonymous alias id of process pid.
func Alias(pid, P int) int { return P + pid }

// AnonTag is the sequence number of an anonymous CAS (Section 7): the
// caller's persisted capsule sequence number times 64 plus the low six
// bits of a volatile per-process counter ctr, which the caller bumps
// once per tag. Anonymous CASes may repeat and need no recovery, only
// (alias, seq) freshness against in-flight expectations; a capsule gets
// 64 distinct tags. The tag wraps silently once capsuleSeq reaches
// 2^(SeqBits-6), unlike Pack, which panics past MaxSeq.
func AnonTag(capsuleSeq, ctr uint64) uint64 {
	return (capsuleSeq*64 + ctr&63) & MaxSeq
}

// InitCell initializes a cell to ⟨val, pid, seq⟩ with a plain write;
// valid only while the cell is unreachable by other processes (e.g. a
// private node being prepared). Using the owner's alias with a fresh
// sequence number keeps the triple distinct from anything a stale
// reader may hold.
func InitCell(p *pmem.Port, x pmem.Addr, val uint64, pid int, seq uint64) {
	p.Write(x, Pack(val, pid, seq))
}

// Space is the paper's Algorithm 1: one announcement word per id
// (including aliases), updated by CAS.
type Space struct {
	nproc int
	aBase pmem.Addr // 2P announcement words, one cache line each

	// Durable enables the manual-flush protocol used by the paper's
	// Figure 6 variants: notify and announce writes are flushed
	// (without a fence — the subsequent locked CAS orders them,
	// Section 10's fence elision), and the cell is flushed after the
	// CAS. This makes the protocol recoverable across full-system
	// crashes in the shared-cache model: by the time the cell's new
	// value can be durable, all evidence needed to recover it is too.
	// Leave false in the private model or under Port.Auto.
	Durable bool
}

// NewSpace allocates announcement state for P processes in mem.
func NewSpace(mem *pmem.Memory, P int) *Space {
	if P < 1 || P > MaxP {
		panic(fmt.Sprintf("rcas: P=%d out of range [1,%d]", P, MaxP))
	}
	s := &Space{nproc: P}
	s.aBase = mem.AllocLines(uint64(2 * P))
	return s
}

// P returns the process count.
func (s *Space) P() int { return s.nproc }

// SetDurable implements CasSpace.
func (s *Space) SetDurable(d bool) { s.Durable = d }

func (s *Space) aAddr(id int) pmem.Addr {
	return s.aBase + pmem.Addr(id)*pmem.WordsPerLine
}

// ReadFull implements CasSpace.
func (s *Space) ReadFull(p *pmem.Port, x pmem.Addr) uint64 { return p.Read(x) }

// notify flips the previous owner's announcement flag for the success
// recorded in triple cur (Algorithm 1 lines 10+12 / 17–18), read from
// cell x. The CAS guard ⟨seq,0⟩→⟨seq,1⟩ ensures a stale notifier can
// never clobber a newer announcement.
func (s *Space) notify(p *pmem.Port, x pmem.Addr, cur uint64) {
	pid := Pid(cur)
	if pid >= s.nproc {
		// The previous writer was an anonymous alias (a Section 7
		// helping CAS): nothing ever recovers it, so there is nobody
		// to notify — the paper's hand-tuned variants implicitly skip
		// this work on every tail operation.
		return
	}
	a := s.aAddr(pid)
	oseq := Seq(cur)
	if s.Durable {
		// Evidence ordering: the flag below is durable proof that cur's
		// CAS succeeded, so the cell value itself must become durable
		// first — otherwise a full-system crash can keep the flag (any
		// unflushed line persists a random prefix by eviction) while
		// dropping the very CAS it witnesses, and the owner's
		// CheckRecovery then claims a success that never durably
		// happened. The notify CAS below drains this flush before the
		// flag write can possibly persist.
		p.Flush(x)
	}
	p.CAS(a, packA(oseq, false), packA(oseq, true))
	if s.Durable {
		p.Flush(a)
	}
}

// Cas implements CasSpace (Algorithm 1 lines 9–14).
func (s *Space) Cas(p *pmem.Port, x pmem.Addr, exp, newVal, seq uint64, pid int) bool {
	cur := p.Read(x)
	if cur != exp {
		return false
	}
	s.notify(p, x, cur)
	a := s.aAddr(pid)
	p.Write(a, packA(seq, false)) // announce
	if s.Durable {
		p.Flush(a) // drained by the CAS below
	}
	ok := p.CAS(x, exp, Pack(newVal, pid, seq))
	if s.Durable {
		p.Flush(x)
	}
	return ok
}

// CasAnon implements CasSpace: like Cas but written under the alias id
// and with no announcement, so it is invisible to recovery.
func (s *Space) CasAnon(p *pmem.Port, x pmem.Addr, exp, newVal, seq uint64, pid int) bool {
	cur := p.Read(x)
	if cur != exp {
		return false
	}
	s.notify(p, x, cur)
	ok := p.CAS(x, exp, Pack(newVal, Alias(pid, s.nproc), seq))
	if s.Durable && ok {
		p.Flush(x)
	}
	return ok
}

// Recover implements CasSpace (Algorithm 1 lines 16–19). Reading the
// cell first self-notifies if the process's own success has not been
// observed by anyone yet.
func (s *Space) Recover(p *pmem.Port, x pmem.Addr, pid int) (uint64, bool) {
	cur := p.Read(x)
	s.notify(p, x, cur)
	return unpackA(p.Read(s.aAddr(pid)))
}

// CheckRecovery implements CasSpace (Algorithm 2).
func (s *Space) CheckRecovery(p *pmem.Port, x pmem.Addr, seq uint64, pid int) bool {
	last, flag := s.Recover(p, x, pid)
	return last >= seq && flag
}

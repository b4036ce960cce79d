// Package pmem simulates the persistent memory of the Parallel Persistent
// Memory (PPM) model from Ben-David et al., "Delay-Free Concurrency on
// Faulty Persistent Memory" (SPAA 2019).
//
// Go cannot issue cache-line flush instructions (clflushopt/sfence) nor
// control what the garbage collector and runtime keep in caches, so the
// persistent memory of the paper is simulated: a word-addressable array
// with an explicit cache-line model. The simulation supports the two
// memory models used by the paper:
//
//   - Private (PPM) model: every Read/Write/CAS to persistent memory is
//     immediately durable. Flush and Fence are counted no-ops. Crashes
//     lose only process-private volatile state (Go locals).
//   - Shared (cache) model: writes land in a simulated volatile cache and
//     become durable only after Flush(addr) of their cache line followed
//     by Fence() (matching clflushopt+sfence semantics), or when the line
//     is "evicted". On a full-system crash, each dirty line retains a
//     random *prefix* of the writes issued to it since it was last
//     persisted, which models the TSO same-cache-line ordering property
//     the paper relies on in Section 9.
//
// Two operating modes trade fidelity for speed:
//
//   - Checked mode can materialize crashes. In the shared model each
//     line keeps an undo log of the writes since it was last persisted:
//     the visible word holds the newest value, the log the value each
//     write replaced, so the durable image is the visible one with the
//     logs undone and needs no second copy of memory. In the private
//     model every write is durable at once, so no line state is kept.
//     Used by tests and crash benchmarks.
//   - Fast mode keeps no line state; Flush/Fence only update counters
//     and optionally spin for a calibrated latency so that benchmark
//     throughput reflects persistence work, as on real NVM. Used by
//     benchmarks. Crashes are not supported in fast mode.
//
// All word accesses go through sync/atomic, so the simulator is safe
// under the race detector. Each process accesses memory through its own
// Port, which carries per-process statistics and the crash-injection
// hook, avoiding cross-process contention on bookkeeping.
package pmem

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Addr is a word address in persistent memory.
type Addr = uint64

const (
	// WordsPerLine is the number of 64-bit words per simulated cache
	// line (64-byte lines, as on x86).
	WordsPerLine = 8
	// LineShift converts a word address to a line index.
	LineShift = 3
	// LineMask masks the within-line word offset.
	LineMask = WordsPerLine - 1
)

// Mode selects which of the paper's two memory models is simulated.
type Mode int

const (
	// Private is the PPM model: persistent memory writes are
	// immediately durable; only process-private state is lost on a
	// crash.
	Private Mode = iota
	// Shared is the shared-cache model: writes are volatile until the
	// line is flushed and fenced (or evicted).
	Shared
)

func (m Mode) String() string {
	switch m {
	case Private:
		return "private"
	case Shared:
		return "shared"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config configures a Memory.
type Config struct {
	// Words is the capacity in 64-bit words.
	Words uint64
	// Mode selects the private (PPM) or shared (cache) model.
	Mode Mode
	// Checked enables the per-line undo logs needed to materialize
	// crashes. Required for crash testing; in the shared model it adds
	// a per-write line lock.
	Checked bool
	// FlushDelay is the number of spin iterations charged per Flush in
	// fast mode, modeling NVM write-back latency. Zero means count
	// only.
	FlushDelay int
	// FenceDelay is the number of spin iterations charged per Fence in
	// fast mode, modeling sfence drain latency. Zero means count only.
	FenceDelay int
	// Seed seeds the crash-materialization RNG (checked mode).
	Seed int64
}

// undoRec is one write to a cache line since it was last persisted
// (checked shared mode only): the word it changed and the value it
// replaced.
type undoRec struct {
	off uint8 // word offset within the line
	old uint64
}

// line is the per-cache-line tracking state (checked shared mode only).
type line struct {
	mu  sync.Mutex
	log []undoRec // oldest first
	// queued marks the line as present in the memory's dirty-line
	// index (guarded by mu). Set on the first log append after the
	// line was last visited by a crash/scan walk; cleared only by the
	// walker, so a line is in the index at most once.
	queued bool
}

// Memory is a simulated persistent memory.
//
// Construct one with New. Access it through per-process Ports (NewPort).
// The zero value is not usable.
type Memory struct {
	cfg   Config
	words []uint64 // current (cache-visible) contents; atomic access

	// lines is the undo-log state of checked shared mode (nil
	// otherwise): a line's durable words are its visible words with its
	// log undone.
	lines []line

	// dirtyIdx indexes the lines whose queued flag is set: every line
	// with unpersisted writes is in it (a superset — lazily compacted),
	// so crash materialization and dirty scans walk O(dirty lines)
	// instead of locking every line of the memory.
	dirtyMu  sync.Mutex
	dirtyIdx []uint64

	crashMu sync.Mutex // serializes crash materialization
	rng     *rand.Rand // guarded by crashMu

	next atomic.Uint64 // allocation bump pointer (in words)

	// delaySink defeats dead-code elimination of the latency spin.
	delaySink atomic.Uint64
}

// New creates a Memory with the given configuration.
func New(cfg Config) *Memory {
	if cfg.Words == 0 {
		cfg.Words = 1 << 20
	}
	// Round capacity to whole lines.
	cfg.Words = (cfg.Words + LineMask) &^ uint64(LineMask)
	m := &Memory{
		cfg:   cfg,
		words: make([]uint64, cfg.Words),
	}
	if cfg.Checked && cfg.Mode == Shared {
		m.lines = make([]line, cfg.Words/WordsPerLine)
		m.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	// Reserve line 0 so that address 0 can serve as a null pointer.
	m.next.Store(WordsPerLine)
	return m
}

// Config returns the configuration the memory was created with.
func (m *Memory) Config() Config { return m.cfg }

// Words returns the capacity in words.
func (m *Memory) Words() uint64 { return m.cfg.Words }

// Alloc reserves n words of persistent memory and returns the address of
// the first. Alloc is safe for concurrent use. It panics if the memory is
// exhausted; simulation capacity is fixed at construction.
func (m *Memory) Alloc(n uint64) Addr {
	a := m.next.Add(n) - n
	if a+n > m.cfg.Words {
		panic(fmt.Sprintf("pmem: out of memory: want %d words at %d, capacity %d", n, a, m.cfg.Words))
	}
	return a
}

// AllocLines reserves n whole cache lines, returning a line-aligned
// address. Placing unrelated hot words on distinct lines mirrors the
// padding a C implementation of the paper would use and keeps flush
// accounting meaningful.
func (m *Memory) AllocLines(n uint64) Addr {
	for {
		cur := m.next.Load()
		aligned := (cur + LineMask) &^ uint64(LineMask)
		want := aligned + n*WordsPerLine
		if want > m.cfg.Words {
			panic(fmt.Sprintf("pmem: out of memory: want %d lines, capacity %d words", n, m.cfg.Words))
		}
		if m.next.CompareAndSwap(cur, want) {
			return aligned
		}
	}
}

// lineOf returns the line index of a word address.
func lineOf(a Addr) uint64 { return a >> LineShift }

// LineOf returns the cache-line index containing address a. Exposed for
// tests and for code that reasons about line sharing (Section 9).
func LineOf(a Addr) uint64 { return lineOf(a) }

// SameLine reports whether two addresses share a cache line.
func SameLine(a, b Addr) bool { return lineOf(a) == lineOf(b) }

// load reads the current (cache-visible) value of a word.
func (m *Memory) load(a Addr) uint64 {
	return atomic.LoadUint64(&m.words[a])
}

// store writes a word into the cache-visible image, logging the value
// it replaces in checked shared mode so a crash can undo it.
func (m *Memory) store(a Addr, v uint64) {
	if m.lines == nil {
		atomic.StoreUint64(&m.words[a], v)
		return
	}
	li := lineOf(a)
	ln := &m.lines[li]
	ln.mu.Lock()
	old := atomic.SwapUint64(&m.words[a], v)
	ln.log = append(ln.log, undoRec{off: uint8(a & LineMask), old: old})
	m.enqueueDirtyLocked(li, ln)
	ln.mu.Unlock()
}

// enqueueDirtyLocked adds the line to the dirty index on its first log
// append since the last walk. Callers must hold ln.mu (lock order is
// line → dirtyMu; walkers never lock a line while holding dirtyMu).
func (m *Memory) enqueueDirtyLocked(li uint64, ln *line) {
	if ln.queued {
		return
	}
	ln.queued = true
	m.dirtyMu.Lock()
	m.dirtyIdx = append(m.dirtyIdx, li)
	m.dirtyMu.Unlock()
}

// takeDirty detaches the current dirty index for a walk.
func (m *Memory) takeDirty() []uint64 {
	m.dirtyMu.Lock()
	idx := m.dirtyIdx
	m.dirtyIdx = nil
	m.dirtyMu.Unlock()
	return idx
}

// cas performs a compare-and-swap on a word, with the same durability
// treatment as store.
func (m *Memory) cas(a Addr, old, new uint64) bool {
	if m.lines == nil {
		return atomic.CompareAndSwapUint64(&m.words[a], old, new)
	}
	li := lineOf(a)
	ln := &m.lines[li]
	ln.mu.Lock()
	ok := atomic.CompareAndSwapUint64(&m.words[a], old, new)
	if ok {
		ln.log = append(ln.log, undoRec{off: uint8(a & LineMask), old: old})
		m.enqueueDirtyLocked(li, ln)
	}
	ln.mu.Unlock()
	return ok
}

// flushLine persists the current contents of line li. In checked shared
// mode the durable line is the visible line with its log undone, so
// persisting it drops the log. The paper's flush (clflushopt) only
// takes effect at the next fence; the Port layer models that by
// deferring flushLine calls until Fence.
func (m *Memory) flushLine(li uint64) {
	if m.lines == nil {
		return
	}
	ln := &m.lines[li]
	ln.mu.Lock()
	ln.log = ln.log[:0]
	ln.mu.Unlock()
}

// delay spins for approximately n iterations; used to charge simulated
// flush/fence latency in fast mode.
func (m *Memory) delay(n int) {
	if n <= 0 {
		return
	}
	var s uint64
	for i := 0; i < n; i++ {
		s += uint64(i) ^ s<<1
	}
	m.delaySink.Store(s)
}

// Crash materializes a full-system crash (shared checked mode): every
// line with unpersisted writes retains a uniformly random prefix of them
// (per line, independently), modeling arbitrary eviction timing under
// same-line TSO ordering. The writes past the prefix are undone, newest
// first, so the cache-visible image becomes the durable image, as the
// caches are lost. Callers must ensure no Port is concurrently accessing
// the memory (the proc runtime stops all processes first).
//
// In private mode Crash is a no-op on memory contents: persistent memory
// is unaffected by crashes in the PPM model.
func (m *Memory) Crash() {
	m.crash(func(n int) int { return m.rng.Intn(n + 1) })
}

// CrashLossy is like Crash but keeps all pending writes of every dirty
// line (evictAll=true, the "friendly" crash where all dirty lines were
// evicted) or none of them (evictAll=false) — useful to test recovery
// paths deterministically.
func (m *Memory) CrashLossy(evictAll bool) {
	m.crash(func(n int) int {
		if evictAll {
			return n
		}
		return 0
	})
}

// crash keeps the first keep(n) of each dirty line's n logged writes
// and undoes the rest. A line diverges from its durable state only
// while its log is non-empty, and every such line is in the dirty
// index — so the walk costs O(lines dirtied since the last crash), not
// O(memory size).
func (m *Memory) crash(keep func(n int) int) {
	if !m.cfg.Checked {
		panic("pmem: Crash requires Checked mode")
	}
	if m.lines == nil {
		return
	}
	m.crashMu.Lock()
	defer m.crashMu.Unlock()
	for _, li := range m.takeDirty() {
		ln := &m.lines[li]
		ln.mu.Lock()
		ln.queued = false
		if n := len(ln.log); n > 0 {
			base := li * WordsPerLine
			k := keep(n)
			for i := n - 1; i >= k; i-- {
				w := ln.log[i]
				atomic.StoreUint64(&m.words[base+uint64(w.off)], w.old)
			}
			ln.log = ln.log[:0]
		}
		ln.mu.Unlock()
	}
}

// PersistedWord returns the durable value of a word (checked mode): the
// value the first unpersisted write to it replaced, else the visible
// value. In private checked mode every write is durable, so it is the
// visible value.
func (m *Memory) PersistedWord(a Addr) uint64 {
	if !m.cfg.Checked {
		panic("pmem: PersistedWord requires Checked mode")
	}
	if m.lines != nil {
		ln := &m.lines[lineOf(a)]
		ln.mu.Lock()
		defer ln.mu.Unlock()
		for _, w := range ln.log {
			if uint64(w.off) == a&LineMask {
				return w.old
			}
		}
	}
	return m.load(a)
}

// VisibleWord returns the current cache-visible value of a word without
// charging statistics; intended for test assertions, debuggers and
// quiescent setup code.
func (m *Memory) VisibleWord(a Addr) uint64 { return m.load(a) }

// DirtyLines returns the number of lines with unpersisted writes
// (checked shared mode); useful in tests asserting flush placement.
func (m *Memory) DirtyLines() int {
	if m.lines == nil {
		return 0
	}
	// Walk only the dirty index, compacting it as a side effect: lines
	// that were flushed since they were queued are dropped (their
	// queued flag cleared so a later store re-queues them). crashMu
	// keeps the detached index out of a concurrent Crash's view — a
	// crash racing this scan must still see every dirty line.
	m.crashMu.Lock()
	defer m.crashMu.Unlock()
	idx := m.takeDirty()
	n := 0
	keep := idx[:0]
	for _, li := range idx {
		ln := &m.lines[li]
		ln.mu.Lock()
		if len(ln.log) > 0 {
			n++
			keep = append(keep, li)
		} else {
			ln.queued = false
		}
		ln.mu.Unlock()
	}
	if len(keep) > 0 {
		m.dirtyMu.Lock()
		m.dirtyIdx = append(m.dirtyIdx, keep...)
		m.dirtyMu.Unlock()
	}
	return n
}

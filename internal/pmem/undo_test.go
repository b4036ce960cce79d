package pmem

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// redoRec is one write to a line since it was last persisted: the word
// and the value written.
type redoRec struct {
	off uint8
	val uint64
}

// redoModel is the crash model kept as a durable image plus per-line
// redo logs of the values written since each line was last persisted.
// It is the reference the undo logs must reproduce word for word,
// including every random prefix a seeded crash keeps: it walks the
// dirty lines in the same order and draws from an identically seeded
// RNG.
type redoModel struct {
	shared           bool
	words, persisted []uint64
	log              [][]redoRec
	queued           []bool
	dirty            []uint64
	rng              *rand.Rand
}

func newRedoModel(words uint64, shared bool, seed int64) *redoModel {
	return &redoModel{
		shared:    shared,
		words:     make([]uint64, words),
		persisted: make([]uint64, words),
		log:       make([][]redoRec, words/WordsPerLine),
		queued:    make([]bool, words/WordsPerLine),
		rng:       rand.New(rand.NewSource(seed)),
	}
}

func (r *redoModel) store(a Addr, v uint64) {
	r.words[a] = v
	if !r.shared {
		r.persisted[a] = v
		return
	}
	li := lineOf(a)
	r.log[li] = append(r.log[li], redoRec{off: uint8(a & LineMask), val: v})
	if !r.queued[li] {
		r.queued[li] = true
		r.dirty = append(r.dirty, li)
	}
}

func (r *redoModel) cas(a Addr, old, new uint64) {
	if r.words[a] == old {
		r.store(a, new)
	}
}

func (r *redoModel) flushLine(li uint64) {
	if !r.shared {
		return
	}
	base := li * WordsPerLine
	copy(r.persisted[base:base+WordsPerLine], r.words[base:base+WordsPerLine])
	r.log[li] = r.log[li][:0]
}

// crash applies the first keep(n) of each dirty line's n writes to the
// durable image and makes it the visible one.
func (r *redoModel) crash(keep func(n int) int) {
	if !r.shared {
		return
	}
	idx := r.dirty
	r.dirty = nil
	for _, li := range idx {
		r.queued[li] = false
		if n := len(r.log[li]); n > 0 {
			base := li * WordsPerLine
			for _, w := range r.log[li][:keep(n)] {
				r.persisted[base+uint64(w.off)] = w.val
			}
			r.log[li] = r.log[li][:0]
			copy(r.words[base:base+WordsPerLine], r.persisted[base:base+WordsPerLine])
		}
	}
}

// dirtyLines counts the lines with writes since their last persist,
// compacting the dirty index as Memory.DirtyLines does.
func (r *redoModel) dirtyLines() int {
	keep := r.dirty[:0]
	for _, li := range r.dirty {
		if len(r.log[li]) > 0 {
			keep = append(keep, li)
		} else {
			r.queued[li] = false
		}
	}
	r.dirty = keep
	return len(keep)
}

// TestUndoLogsMatchRedoImage runs seeded random scripts of reads,
// writes, CASes, flushes, fences, crashes and lossy crashes on three
// ports (the last in Auto mode) and compares every visible and durable
// word with the redo-image model after every operation, in both memory
// models. After a crash the visible and durable images must be equal.
func TestUndoLogsMatchRedoImage(t *testing.T) {
	const words, nports, scripts, steps = 4 * WordsPerLine, 3, 150, 300
	for _, mode := range []Mode{Private, Shared} {
		for seed := int64(1); seed <= scripts; seed++ {
			m := New(Config{Words: words, Mode: mode, Checked: true, Seed: seed})
			ref := newRedoModel(words, mode == Shared, seed)
			ports := make([]*Port, nports)
			pending := make([][]uint64, nports)
			for i := range ports {
				ports[i] = m.NewPort()
			}
			ports[nports-1].Auto = true
			drain := func(i int) {
				for _, li := range pending[i] {
					ref.flushLine(li)
				}
				pending[i] = pending[i][:0]
			}
			script := rand.New(rand.NewSource(-seed))
			for step := 0; step < steps; step++ {
				i := script.Intn(nports)
				p := ports[i]
				a := Addr(script.Intn(words))
				v := uint64(script.Intn(16))
				var op string
				switch r := script.Intn(20); {
				case r < 6:
					op = "write"
					p.Write(a, v)
					ref.store(a, v)
				case r < 9:
					op = "cas"
					old := ref.words[a]
					if script.Intn(3) == 0 {
						old = uint64(script.Intn(16))
					}
					drain(i)
					if got, want := p.CAS(a, old, v), ref.words[a] == old; got != want {
						t.Fatalf("mode=%v seed=%d step %d: CAS(%d, %d, %d) = %v, want %v", mode, seed, step, a, old, v, got, want)
					}
					ref.cas(a, old, v)
				case r < 10:
					op = "read"
					if got := p.Read(a); got != ref.words[a] {
						t.Fatalf("mode=%v seed=%d step %d: Read(%d) = %d, want %d", mode, seed, step, a, got, ref.words[a])
					}
				case r < 14:
					op = "flush"
					p.Flush(a)
					pending[i] = append(pending[i], lineOf(a))
				case r < 16:
					op = "fence"
					p.Fence()
					drain(i)
				case r < 17:
					op = "dirty-lines"
					if got, want := m.DirtyLines(), ref.dirtyLines(); got != want {
						t.Fatalf("mode=%v seed=%d step %d: DirtyLines = %d, want %d", mode, seed, step, got, want)
					}
				default:
					switch script.Intn(4) {
					case 0:
						op = "crash-lossy-evict"
						m.CrashLossy(true)
						ref.crash(func(n int) int { return n })
					case 1:
						op = "crash-lossy-drop"
						m.CrashLossy(false)
						ref.crash(func(int) int { return 0 })
					default:
						op = "crash"
						m.Crash()
						ref.crash(func(n int) int { return ref.rng.Intn(n + 1) })
					}
					for j, q := range ports {
						q.DropPending()
						pending[j] = pending[j][:0]
					}
				}
				// An Auto access persists the accessed line after
				// draining the epoch.
				if p.Auto && (op == "write" || op == "cas" || op == "read") {
					drain(i)
					ref.flushLine(lineOf(a))
				}
				for w := Addr(0); w < words; w++ {
					vis, dur := m.VisibleWord(w), m.PersistedWord(w)
					if vis != ref.words[w] || dur != ref.persisted[w] {
						t.Fatalf("mode=%v seed=%d step %d (%s): word %d visible %d durable %d, redo image has %d and %d",
							mode, seed, step, op, w, vis, dur, ref.words[w], ref.persisted[w])
					}
					if strings.HasPrefix(op, "crash") && vis != dur {
						t.Fatalf("mode=%v seed=%d step %d (%s): word %d visible %d but durable %d after the crash",
							mode, seed, step, op, w, vis, dur)
					}
				}
			}
		}
	}
}

// TestConcurrentSameLineCrash has four goroutines write their own word
// of one line and CAS-increment a shared counter on it, with an
// occasional flush and fence, in checked shared mode; then it crashes.
// Each word must keep at least its last fenced value, and the line must
// keep a prefix of its writes: goroutine g's write i came before its
// counter increment to c, so a surviving counter >= c implies word g >=
// i.
func TestConcurrentSameLineCrash(t *testing.T) {
	const workers, n = 4, 200
	for seed := int64(1); seed <= 5; seed++ {
		m := New(Config{Words: 1 << 8, Mode: Shared, Checked: true, Seed: seed})
		ln := m.AllocLines(1)
		ctr := ln + WordsPerLine - 1
		fenced := make([]uint64, workers)
		incs := make([][]uint64, workers) // incs[g][i-1]: the counter g's write i was followed by
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			p := m.NewPort()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := uint64(1); i <= n; i++ {
					p.Write(ln+Addr(g), i)
					for {
						c := p.Read(ctr)
						if p.CAS(ctr, c, c+1) {
							incs[g] = append(incs[g], c+1)
							break
						}
					}
					if i%16 == 0 {
						p.FlushFence(ln)
						fenced[g] = i
					}
				}
			}()
		}
		wg.Wait()
		m.Crash()
		if d := m.DirtyLines(); d != 0 {
			t.Fatalf("seed=%d: %d dirty lines after the crash", seed, d)
		}
		for w := ln; w < ln+WordsPerLine; w++ {
			if vis, dur := m.VisibleWord(w), m.PersistedWord(w); vis != dur {
				t.Fatalf("seed=%d: word %d visible %d, durable %d after the crash", seed, w-ln, vis, dur)
			}
		}
		c := m.VisibleWord(ctr)
		if c > workers*n {
			t.Fatalf("seed=%d: counter %d above the %d increments", seed, c, workers*n)
		}
		for g := 0; g < workers; g++ {
			got := m.VisibleWord(ln + Addr(g))
			if got < fenced[g] || got > n {
				t.Fatalf("seed=%d: word %d = %d, fenced %d, wrote up to %d", seed, g, got, fenced[g], n)
			}
			for i, ci := range incs[g] {
				if ci <= c && got < uint64(i+1) {
					t.Fatalf("seed=%d: counter %d survived but word %d = %d, below write %d that preceded increment %d",
						seed, c, g, got, i+1, ci)
				}
			}
		}
	}
}

// TestCheckedFootprint bounds what New allocates for a checked memory
// of 2^20 words: the visible words plus one line record per eight words
// in the shared model, the visible words alone in the private model —
// no second image of memory.
func TestCheckedFootprint(t *testing.T) {
	const words = 1 << 20
	for _, c := range []struct {
		mode    Mode
		maxPerW float64
	}{{Shared, 14}, {Private, 8.5}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := New(Config{Words: words, Mode: c.mode, Checked: true})
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(m)
		if got := float64(after.TotalAlloc-before.TotalAlloc) / words; got > c.maxPerW {
			t.Errorf("mode=%v: New allocated %.2f B/word, want at most %v", c.mode, got, c.maxPerW)
		}
	}
}

package wcas

import (
	"fmt"
	"testing"

	"delayfree/internal/pmem"
	"delayfree/internal/proc"
)

// batchVal encodes a round-stamped value so crash assertions can tell
// which round a recovered object came from: round:56 | j:8. Round 0 is
// the zero init image.
func batchVal(round, j int) uint64 { return uint64(round)<<8 | uint64(j) }
func batchRound(v uint64) int      { return int(v >> 8) }

// TestBatcherGroupCommit drives the three-phase protocol in the private
// model and checks visibility, line packing, and the flush economics the
// tier exists for: committing W writes in batches must issue far fewer
// effective flushes than the classic per-op two-flush protocol.
func TestBatcherGroupCommit(t *testing.T) {
	const M, P = 64, 2
	mem := pmem.New(pmem.Config{Words: 1 << 16})
	rt := proc.NewRuntime(mem, P)
	port := rt.Proc(0).Mem()
	// 24 lines = 192 slots: covers the 64-object live set plus a full
	// window of quarantined retirees plus the in-flight batch.
	a := NewWithExtent(mem, port, M, P, 24, func(j int) uint64 { return 0 })
	a.SetDurable(true)
	h := a.NewHandle(port, 0)
	b := a.NewBatcher(h, 24, 1<<30) // manual closes only

	before := port.Stats
	for r := 1; r <= 2; r++ {
		for base := 0; base < M; base += 8 {
			b.BeginBatch()
			for j := base; j < base+8; j++ {
				b.BatchWrite(j, batchVal(r, j))
			}
			if got := b.CommitBatch(); got != 8 {
				t.Fatalf("round %d: applied %d of 8", r, got)
			}
		}
		if !b.Deferred() {
			t.Fatal("window empty right after commits")
		}
		b.CloseWindow()
		if b.Deferred() {
			t.Fatal("window still deferred after CloseWindow")
		}
		for j := 0; j < M; j++ {
			if got := a.Peek(port, j); got != batchVal(r, j) {
				t.Fatalf("round %d: object %d = %#x, want %#x", r, j, got, batchVal(r, j))
			}
		}
	}
	d := port.Stats.Sub(before)
	eff := d.Flushes - d.CoalescedFlushes
	// 128 writes: installs touch ≤ 2 rounds × 8 lines (extent wraps) +
	// scattered spill, Ptr persists ≤ 2 rounds × 9 lines. Classic would
	// be 256 effective flushes; anything near that means deferral broke.
	if eff > 60 {
		t.Fatalf("128 batched writes cost %d effective flushes (classic ≈ 256)", eff)
	}
	if b.MiniFences != 0 {
		t.Fatalf("unexpected mini-fences: %d", b.MiniFences)
	}

	// Classic ops interoperate on the same array: a Write swings an
	// extent slot out; its retirement goes through the classic pool.
	h.Write(3, 999)
	if got := h.Read(3); got != 999 {
		t.Fatalf("classic write over batched object: %d", got)
	}
	b.BeginBatch()
	b.BatchWrite(3, 1000)
	if b.CommitBatch() != 1 {
		t.Fatal("batch swing over classic value lost with no contention")
	}
	b.CloseWindow()
	if got := a.Peek(port, 3); got != 1000 {
		t.Fatalf("object 3 = %d, want 1000", got)
	}
}

// TestBatcherRecycleGuard forces the allocation path where every extent
// line holds in-window retirees: the Batcher must mini-fence (close the
// window early) rather than reuse a slot an unfenced swing replaced.
func TestBatcherRecycleGuard(t *testing.T) {
	const M, P = 4, 1
	mem := pmem.New(pmem.Config{Words: 1 << 14})
	rt := proc.NewRuntime(mem, P)
	port := rt.Proc(0).Mem()
	a := NewWithExtent(mem, port, M, P, 1, func(j int) uint64 { return 0 })
	a.SetDurable(true)
	h := a.NewHandle(port, 0)
	b := a.NewBatcher(h, 1, 1<<30)

	writeRound := func(r int) {
		b.BeginBatch()
		for j := 0; j < M; j++ {
			b.BatchWrite(j, batchVal(r, j))
		}
		if got := b.CommitBatch(); got != M {
			t.Fatalf("round %d applied %d", r, got)
		}
	}
	writeRound(1) // fills half the line, retires the 4 init slots
	writeRound(2) // fills the line, retires round 1's extent slots
	if b.MiniFences != 0 {
		t.Fatalf("premature mini-fence: %d", b.MiniFences)
	}
	writeRound(3) // line full of live+quarantined: must mini-fence
	if b.MiniFences == 0 {
		t.Fatal("recycle guard did not fire on a saturated extent")
	}
	b.CloseWindow()
	for j := 0; j < M; j++ {
		if got := a.Peek(port, j); got != batchVal(3, j) {
			t.Fatalf("object %d = %#x, want %#x", j, got, batchVal(3, j))
		}
	}
	if _, err := a.checkNoSharedSlots(port); err != "" {
		t.Fatal(err)
	}
}

// checkNoSharedSlots verifies no two Ptr entries name one slot — the
// invariant whose violation the recycle guard exists to prevent.
func (a *Array) checkNoSharedSlots(port *pmem.Port) (map[uint32]int, string) {
	seen := map[uint32]int{}
	for j := 0; j < a.M; j++ {
		s := ptrSlot(port.Read(a.ptr + pmem.Addr(j)))
		if prev, dup := seen[s]; dup {
			return nil, "slot backing both object " + itoa(prev) + " and " + itoa(j)
		}
		seen[s] = j
	}
	return seen, ""
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

// TestBatcherAbortAndReplay pins the crash-restart contract: BeginBatch
// over an open batch aborts the un-swung remainder only, and a replayed
// batch re-applies cleanly with no slot leak.
func TestBatcherAbortAndReplay(t *testing.T) {
	const M, P = 8, 1
	mem := pmem.New(pmem.Config{Words: 1 << 14})
	rt := proc.NewRuntime(mem, P)
	port := rt.Proc(0).Mem()
	a := NewWithExtent(mem, port, M, P, 2, func(j int) uint64 { return 0 })
	a.SetDurable(true)
	h := a.NewHandle(port, 0)
	b := a.NewBatcher(h, 2, 1<<30)

	b.BeginBatch()
	b.BatchWrite(0, batchVal(1, 0))
	b.BatchWrite(1, batchVal(1, 1))
	// Routine restarts here: BeginBatch must self-heal the open batch.
	b.BeginBatch()
	for j := 0; j < M; j++ {
		b.BatchWrite(j, batchVal(2, j))
	}
	if got := b.CommitBatch(); got != M {
		t.Fatalf("replayed batch applied %d", got)
	}
	b.CloseWindow()
	for j := 0; j < M; j++ {
		if got := a.Peek(port, j); got != batchVal(2, j) {
			t.Fatalf("object %d = %#x", j, got)
		}
	}
	// The aborted installs' slots must have been reclaimed: after many
	// more rounds the allocator must not exhaust.
	for r := 3; r < 40; r++ {
		b.BeginBatch()
		for j := 0; j < M; j++ {
			b.BatchWrite(j, batchVal(r, j))
		}
		b.CommitBatch()
	}
	b.CloseWindow()
	if _, err := a.checkNoSharedSlots(port); err != "" {
		t.Fatal(err)
	}
}

// batchSweepMilestone records that by instrumented step `steps`, every
// round ≤ `round` had durably closed (its window fence completed).
type batchSweepMilestone struct {
	steps int64
	round int
}

// runBatchSweepProgram is the deterministic driver the crash sweep
// instruments: 4 rounds of full-array batched writes over a 1-line
// extent with explicit window closes after rounds 2 and 4. Round 4's
// first allocation finds the extent line saturated with quarantined
// in-window retirees and mini-fences (closing rounds 1-3) — so the
// sweep's crash points cover install, install fence, swing, deferred
// flush, close fence AND the recycle-guard mini-fence. Returns the
// durability milestones as absolute port step counts.
func runBatchSweepProgram(t *testing.T, p *proc.Proc, a *Array, rounds int) []batchSweepMilestone {
	t.Helper()
	port := p.Mem()
	h := a.NewHandle(port, 0)
	b := a.NewBatcher(h, 1, 1<<30)
	var ms []batchSweepMilestone
	for r := 1; r <= rounds; r++ {
		b.BeginBatch()
		for j := 0; j < a.M; j++ {
			b.BatchWrite(j, batchVal(r, j))
			if j == 0 && b.MiniFences > 0 && len(ms) == 1 {
				// The recycle guard just closed every prior round's
				// swings inside this allocation.
				ms = append(ms, batchSweepMilestone{steps: int64(port.Stats.Steps), round: r - 1})
			}
		}
		b.CommitBatch()
		if r%2 == 0 {
			b.CloseWindow()
			ms = append(ms, batchSweepMilestone{steps: int64(port.Stats.Steps), round: r})
		}
	}
	if b.MiniFences == 0 {
		t.Error("sweep program never exercised the recycle-guard mini-fence")
	}
	return ms
}

// TestBatchCommitCrashSweep crashes after every instrumented step of a
// full group-commit run, in both failure models, and asserts after
// Recover: (1) no slot backs two objects (Recover would panic), (2)
// every recovered value is one actually written, untorn, (3) rounds
// whose close fence completed before the crash are durable — later
// crashes can only move objects forward, (4) a fresh Batcher built over
// the recovered array works. The deferred window means values *newer*
// than the last close may or may not survive per line (the crash keeps
// a random prefix of each line's unfenced writes) — that freedom is
// exactly what the close-fence floor assertion bounds.
func TestBatchCommitCrashSweep(t *testing.T) {
	const M, P, rounds = 4, 1, 4
	for _, mode := range []pmem.Mode{pmem.Shared, pmem.Private} {
		mode := mode
		name := "shared"
		if mode == pmem.Private {
			name = "private"
		}
		newMem := func(seed int64) *pmem.Memory {
			return pmem.New(pmem.Config{Words: 1 << 14, Mode: mode, Checked: true, Seed: seed})
		}
		t.Run(name, func(t *testing.T) {
			// Clean run: measure total steps and durability milestones,
			// converted to counts relative to the program start (where
			// the crash runs arm) — seeds do not change step sequences.
			mem := newMem(1)
			rt := proc.NewRuntime(mem, P)
			rt.SystemCrashMode = true
			a := NewWithExtent(mem, rt.Proc(0).Mem(), M, P, 1, func(j int) uint64 { return 0 })
			a.SetDurable(true)
			var milestones []batchSweepMilestone
			start := int64(rt.Proc(0).Mem().Stats.Steps)
			rt.RunToCompletion(func(i int) proc.Program {
				return func(p *proc.Proc) {
					milestones = runBatchSweepProgram(t, p, a, rounds)
				}
			})
			total := int64(rt.Proc(0).Mem().Stats.Steps) - start
			if len(milestones) != 3 {
				t.Fatalf("milestones: %v", milestones)
			}
			for i := range milestones {
				milestones[i].steps -= start
			}

			stride := int64(1)
			if testing.Short() {
				stride = 5
			}
			for n := int64(1); n < total; n += stride {
				mem := newMem(n*13 + 7)
				rt := proc.NewRuntime(mem, P)
				rt.SystemCrashMode = true
				a := NewWithExtent(mem, rt.Proc(0).Mem(), M, P, 1, func(j int) uint64 { return 0 })
				a.SetDurable(true)
				crashed := false
				rt.RunToCompletion(func(i int) proc.Program {
					return func(p *proc.Proc) {
						port := p.Mem()
						if p.Crashed() {
							crashed = true
							pools := a.Recover(port) // panics on a shared slot
							if _, err := a.checkNoSharedSlots(port); err != "" {
								t.Errorf("crash after %d steps: %s", n, err)
							}
							floor := 0
							for _, m := range milestones {
								if m.steps <= n && m.round > floor {
									floor = m.round
								}
							}
							for j := 0; j < M; j++ {
								v := a.Peek(port, j)
								r := batchRound(v)
								if r > rounds || (v != 0 && int(v&0xFF) != j) || (r == 0 && v != 0) {
									t.Errorf("crash after %d steps: object %d recovered phantom %#x", n, j, v)
								}
								if r < floor {
									t.Errorf("crash after %d steps: object %d at round %d, but round %d had durably closed", n, j, r, floor)
								}
							}
							// Recovery path: a fresh Batcher over the
							// recovered array applies one more round.
							h := a.NewHandleWithPool(port, 0, pools[0])
							nb := a.NewBatcher(h, 1, 1<<30)
							nb.BeginBatch()
							for j := 0; j < M; j++ {
								nb.BatchWrite(j, batchVal(rounds+1, j))
							}
							nb.CommitBatch()
							nb.CloseWindow()
							return
						}
						p.ArmCrashAfter(n)
						runBatchSweepProgram(t, p, a, rounds)
						p.Disarm()
					}
				})
				port := rt.Proc(0).Mem()
				want := rounds
				if crashed {
					want = rounds + 1
				}
				for j := 0; j < M; j++ {
					if got := a.Peek(port, j); got != batchVal(want, j) {
						t.Fatalf("n=%d: final object %d = %#x, want %#x", n, j, got, batchVal(want, j))
					}
				}
				if _, err := a.checkNoSharedSlots(port); err != "" {
					t.Fatalf("n=%d: %s", n, err)
				}
			}
		})
	}
}

// TestCloseWindowZeroAlloc pins the close path at 0 Go allocations. The
// ingress group combiner closes the window inside the applying span
// whenever no full next batch is waiting — once per span at low load,
// tens of thousands of closes a second — so the per-close announcement
// set and the retiree filter live on the Batcher, not the heap. P is
// above 8 on purpose: a small-hint map stays on the stack and would hide
// the allocation. One reader holds a resolved announcement naming a slot
// the window retires, so the keep path runs too.
func TestCloseWindowZeroAlloc(t *testing.T) {
	const M, P = 64, 16
	mem := pmem.New(pmem.Config{Words: 1 << 16})
	rt := proc.NewRuntime(mem, P)
	port := rt.Proc(0).Mem()
	a := NewWithExtent(mem, port, M, P, 24, func(j int) uint64 { return 0 })
	a.SetDurable(true)
	h := a.NewHandle(port, 0)
	b := a.NewBatcher(h, 24, 1<<30) // manual closes only

	round := 0
	commit := func() {
		round++
		b.BeginBatch()
		for j := 0; j < 4; j++ {
			b.BatchWrite(j, batchVal(round, j))
		}
		if b.CommitBatch() != 4 {
			t.Fatal("uncontended batch lost a swing")
		}
	}
	commit()
	b.CloseWindow()
	// Reader 1 announces object 0's current slot, resolved; the next
	// window retires that slot and every close must keep it quarantined.
	pinned := ptrSlot(port.Read(a.ptr))
	port.Write(a.annAddr(1), packAnn(pinned, 1, false))

	one := func() {
		commit()
		b.CloseWindow()
	}
	one() // grow the window lists to their steady size
	if len(b.winRet) != 1 || b.winRet[0] != pinned {
		t.Fatalf("announced retiree not kept: winRet = %v, want [%d]", b.winRet, pinned)
	}
	if avg := testing.AllocsPerRun(100, one); avg != 0 {
		t.Fatalf("commit+CloseWindow allocates %v objects/run at P=%d, want 0", avg, P)
	}
	if len(b.winRet) != 1 || b.winRet[0] != pinned {
		t.Fatalf("announced retiree released while still announced: winRet = %v", b.winRet)
	}
}

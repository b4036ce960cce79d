package history

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"delayfree/internal/pmem"
)

func pmemStatsForTest() pmem.Stats { return pmem.Stats{Flushes: 7, Fences: 3} }

// hb builds synthetic histories for checker self-tests. Each op gets
// invocation/return tickets from a hand-controlled clock so tests can
// state real-time precedence exactly.
type hb struct {
	h    History
	tick uint64
}

func newHB(procs int) *hb { return &hb{h: History{Procs: procs}} }

func (b *hb) next() uint64 { b.tick++; return b.tick }

// op appends a completed operation spanning [invoke, return] in call
// order: each call's interval is disjoint from and after the previous
// call's unless built through opAt.
func (b *hb) op(proc int, op Op, id, arg, arg2 uint64, ok bool, res uint64) *hb {
	b.h.Ops = append(b.h.Ops, OpRecord{
		Proc: int32(proc), Op: op, ID: id, Arg: arg, Arg2: arg2,
		Invoked: true, Returned: true, Ok: ok, Res: res,
		InvTicket: b.next(), RetTicket: b.next(), Invokes: 1, Returns: 1,
	})
	return b
}

// inflight appends an operation that never returned (dropped at a crash).
func (b *hb) inflight(proc int, op Op, id, arg, arg2 uint64) *hb {
	b.h.Ops = append(b.h.Ops, OpRecord{
		Proc: int32(proc), Op: op, ID: id, Arg: arg, Arg2: arg2,
		Invoked: true, InvTicket: b.next(), Invokes: 1,
	})
	return b
}

// overlap makes the last two appended ops concurrent (intervals overlap).
func (b *hb) overlap() *hb {
	n := len(b.h.Ops)
	b.h.Ops[n-1].InvTicket = b.h.Ops[n-2].InvTicket
	return b
}

func (b *hb) crash() *hb {
	b.h.Crashes = append(b.h.Crashes, Event{Ticket: b.next(), Kind: EvCrash, Proc: -1})
	return b
}

func (b *hb) residue(vals ...uint64) *hb    { b.h.Final.Residue = vals; return b }
func (b *hb) final(m map[uint64]uint64) *hb { b.h.Final.Map = m; return b }

func codes(vs []Violation) string {
	var out []string
	for _, v := range vs {
		out = append(out, v.Spec+"/"+v.Code)
	}
	return strings.Join(out, ",")
}

func wantCode(t *testing.T, vs []Violation, code string) {
	t.Helper()
	for _, v := range vs {
		if v.Code == code {
			return
		}
	}
	t.Errorf("violation %q not flagged; got [%s]", code, codes(vs))
}

func wantClean(t *testing.T, vs []Violation) {
	t.Helper()
	if len(vs) != 0 {
		t.Errorf("known-good history flagged: [%s] %v", codes(vs), vs)
	}
}

// --- The four mandated bad histories ---

// 1. Duplicate delivery: one enqueued value dequeued by two operations.
func TestQueueDupDeliveryFlagged(t *testing.T) {
	b := newHB(2).
		op(0, OpEnq, 0, 100, 0, true, 0).
		op(0, OpDeq, 0, 0, 0, true, 100).
		op(1, OpDeq, 0, 0, 0, true, 100)
	wantCode(t, CheckQueueFIFO(&b.h), "dup-delivery")
}

// 2. Lost value: a durably completed enqueue whose value is neither
// dequeued nor in the recovered queue.
func TestQueueLostValueFlagged(t *testing.T) {
	b := newHB(2).
		op(0, OpEnq, 0, 100, 0, true, 0).
		op(0, OpEnq, 1, 101, 0, true, 0).
		op(1, OpDeq, 0, 0, 0, true, 101).
		residue() // empty: value 100 vanished
	wantCode(t, CheckQueueFIFO(&b.h), "lost-value")
}

// 3. Out-of-FIFO dequeue: enq(100) strictly precedes enq(101), yet 101
// is dequeued strictly before 100.
func TestQueueFIFOOrderFlagged(t *testing.T) {
	b := newHB(2).
		op(0, OpEnq, 0, 100, 0, true, 0).
		op(1, OpEnq, 0, 101, 0, true, 0).
		op(1, OpDeq, 1, 0, 0, true, 101).
		op(0, OpDeq, 1, 0, 0, true, 100)
	wantCode(t, CheckQueueFIFO(&b.h), "fifo-order")
}

// 4. Crash-straddling op counted twice: an enqueue in flight at a crash
// may be dropped or take effect once — here its value shows up both in
// a dequeue and in the recovered residue.
func TestQueueCrashStraddlerTwiceFlagged(t *testing.T) {
	b := newHB(2).
		inflight(0, OpEnq, 0, 100, 0).
		crash().
		op(1, OpDeq, 0, 0, 0, true, 100).
		residue(100)
	wantCode(t, CheckQueueFIFO(&b.h), "double-effect")
}

// --- Known-good histories must pass ---

func TestQueueKnownGoodPasses(t *testing.T) {
	// Balanced pairs across two procs, FIFO respected, queue drains.
	b := newHB(2).
		op(0, OpEnq, 0, 100, 0, true, 0).
		op(1, OpEnq, 0, 200, 0, true, 0).
		op(0, OpDeq, 0, 0, 0, true, 100).
		op(1, OpDeq, 0, 0, 0, true, 200).
		residue()
	wantClean(t, CheckQueueFIFO(&b.h))
}

func TestQueueCrashDroppedInFlightPasses(t *testing.T) {
	// An enqueue in flight at the crash simply never took effect —
	// legal under durable linearizability.
	b := newHB(2).
		op(0, OpEnq, 0, 100, 0, true, 0).
		inflight(1, OpEnq, 0, 200, 0).
		crash().
		op(0, OpDeq, 0, 0, 0, true, 100).
		residue()
	wantClean(t, CheckQueueFIFO(&b.h))
}

func TestQueueCrashIncludedInFlightPasses(t *testing.T) {
	// ...or it took effect exactly once (value in the residue).
	b := newHB(2).
		op(0, OpEnq, 0, 100, 0, true, 0).
		inflight(1, OpEnq, 0, 200, 0).
		crash().
		op(0, OpDeq, 0, 0, 0, true, 100).
		residue(200)
	wantClean(t, CheckQueueFIFO(&b.h))
}

func TestQueueConcurrentEnqueuesEitherOrderPasses(t *testing.T) {
	// Overlapping enqueues may linearize either way: dequeue order
	// opposite to invocation order is fine when the intervals overlap.
	b := newHB(2).
		op(0, OpEnq, 0, 100, 0, true, 0).
		op(1, OpEnq, 0, 200, 0, true, 0).overlap().
		op(0, OpDeq, 0, 0, 0, true, 200).
		op(1, OpDeq, 0, 0, 0, true, 100).
		residue()
	wantClean(t, CheckQueueFIFO(&b.h))
}

// --- More queue checks ---

func TestQueuePhantomFlagged(t *testing.T) {
	b := newHB(1).op(0, OpDeq, 0, 0, 0, true, 999)
	wantCode(t, CheckQueueFIFO(&b.h), "phantom")
}

func TestQueueResiduePhantomFlagged(t *testing.T) {
	b := newHB(1).op(0, OpEnq, 0, 100, 0, true, 0).residue(100, 777)
	wantCode(t, CheckQueueFIFO(&b.h), "residue-phantom")
}

func TestQueueResidueDupFlagged(t *testing.T) {
	b := newHB(1).op(0, OpEnq, 0, 100, 0, true, 0).residue(100, 100)
	wantCode(t, CheckQueueFIFO(&b.h), "residue-dup")
}

func TestQueueFIFOOvertakeFlagged(t *testing.T) {
	// 100 enqueued strictly first, 101 dequeued, 100 still in residue.
	b := newHB(2).
		op(0, OpEnq, 0, 100, 0, true, 0).
		op(1, OpEnq, 0, 101, 0, true, 0).
		op(1, OpDeq, 0, 0, 0, true, 101).
		residue(100)
	wantCode(t, CheckQueueFIFO(&b.h), "fifo-overtake")
}

func TestQueueResidueOrderFlagged(t *testing.T) {
	b := newHB(2).
		op(0, OpEnq, 0, 100, 0, true, 0).
		op(1, OpEnq, 0, 101, 0, true, 0).
		residue(101, 100) // head-to-tail: 101 ahead of the older 100
	wantCode(t, CheckQueueFIFO(&b.h), "residue-order")
}

func TestQueueEmptyDeqWitnessFlagged(t *testing.T) {
	// enq(100) completed strictly before the deq, value still in the
	// queue at the end — the deq cannot have seen an empty queue.
	b := newHB(2).
		op(0, OpEnq, 0, 100, 0, true, 0).
		op(1, OpDeq, 0, 0, 0, false, 0).
		residue(100)
	wantCode(t, CheckQueueFIFO(&b.h), "empty-nonempty")
}

func TestQueueEmptyDeqLegitimatePasses(t *testing.T) {
	// The concurrent deq by proc 0 explains the emptiness seen by proc 1.
	b := newHB(2).
		op(0, OpEnq, 0, 100, 0, true, 0).
		op(0, OpDeq, 0, 0, 0, true, 100).
		op(1, OpDeq, 0, 0, 0, false, 0).overlap().
		residue()
	wantClean(t, CheckQueueFIFO(&b.h))
}

// --- Stack spec ---

func TestStackLIFOOrderFlagged(t *testing.T) {
	// push(1) < push(2) < pop(1): 2 must pop before 1, but 2 popped after.
	b := newHB(2).
		op(0, OpPush, 0, 1, 0, true, 0).
		op(1, OpPush, 0, 2, 0, true, 0).
		op(0, OpPop, 1, 0, 0, true, 1).
		op(1, OpPop, 1, 0, 0, true, 2)
	wantCode(t, CheckStackLIFO(&b.h), "lifo-order")
}

func TestStackLIFOOrderResidueFlagged(t *testing.T) {
	// Same, but 2 never popped at all: it survived in the stack.
	b := newHB(2).
		op(0, OpPush, 0, 1, 0, true, 0).
		op(1, OpPush, 0, 2, 0, true, 0).
		op(0, OpPop, 1, 0, 0, true, 1).
		residue(2)
	wantCode(t, CheckStackLIFO(&b.h), "lifo-order")
}

func TestStackResidueOrderFlagged(t *testing.T) {
	// Residue drains top to bottom: the earlier push must be deeper.
	b := newHB(2).
		op(0, OpPush, 0, 1, 0, true, 0).
		op(1, OpPush, 0, 2, 0, true, 0).
		residue(1, 2) // 1 above 2 although 1 was pushed first
	wantCode(t, CheckStackLIFO(&b.h), "residue-order")
}

func TestStackKnownGoodPasses(t *testing.T) {
	b := newHB(2).
		op(0, OpPush, 0, 1, 0, true, 0).
		op(1, OpPush, 0, 2, 0, true, 0).
		op(1, OpPop, 1, 0, 0, true, 2).
		op(0, OpPop, 1, 0, 0, true, 1).
		residue()
	wantClean(t, CheckStackLIFO(&b.h))
	// LIFO residue: later push on top.
	b2 := newHB(2).
		op(0, OpPush, 0, 1, 0, true, 0).
		op(1, OpPush, 0, 2, 0, true, 0).
		residue(2, 1)
	wantClean(t, CheckStackLIFO(&b2.h))
}

func TestStackDupDeliveryFlagged(t *testing.T) {
	b := newHB(2).
		op(0, OpPush, 0, 1, 0, true, 0).
		op(0, OpPop, 1, 0, 0, true, 1).
		op(1, OpPop, 0, 0, 0, true, 1)
	wantCode(t, CheckStackLIFO(&b.h), "dup-delivery")
}

// --- Map spec ---

func TestMapStaleReadFlagged(t *testing.T) {
	// put(k,1) overwritten by put(k,2) strictly before the get began,
	// yet the get still observed 1.
	b := newHB(2).
		op(0, OpPut, 0, 5, 1, true, 0).
		op(0, OpPut, 1, 5, 2, true, 0).
		op(1, OpGet, 0, 5, 0, true, 1).
		final(map[uint64]uint64{5: 2})
	wantCode(t, CheckMapLWW(&b.h), "stale-read")
}

func TestMapRepeatedValueNotStale(t *testing.T) {
	// The same value is put twice (script loops repeat values): the
	// later candidate justifies the read even though the earlier one
	// was overwritten.
	b := newHB(2).
		op(0, OpPut, 0, 5, 1, true, 0).
		op(0, OpPut, 1, 5, 2, true, 0).
		op(0, OpPut, 2, 5, 1, true, 0). // value 1 written again
		op(1, OpGet, 0, 5, 0, true, 1).
		final(map[uint64]uint64{5: 1})
	wantClean(t, CheckMapLWW(&b.h))
}

func TestMapReadNeverWrittenFlagged(t *testing.T) {
	b := newHB(1).op(0, OpGet, 0, 5, 0, true, 9)
	wantCode(t, CheckMapLWW(&b.h), "read-never-written")
}

func TestMapEmptyReadFlagged(t *testing.T) {
	// A put completed strictly before the get; no delete anywhere.
	b := newHB(2).
		op(0, OpPut, 0, 5, 1, true, 0).
		op(1, OpGet, 0, 5, 0, false, 0).
		final(map[uint64]uint64{5: 1})
	wantCode(t, CheckMapLWW(&b.h), "empty-read")
}

func TestMapEmptyReadWithInFlightDeletePasses(t *testing.T) {
	// A delete in flight at the crash may have taken effect before the
	// get — absence is explicable, and so is the key's disappearance.
	b := newHB(2).
		op(0, OpPut, 0, 5, 1, true, 0).
		inflight(0, OpDelete, 1, 5, 0).
		crash().
		op(1, OpGet, 0, 5, 0, false, 0).
		final(map[uint64]uint64{})
	wantClean(t, CheckMapLWW(&b.h))
}

func TestMapFinalLostFlagged(t *testing.T) {
	// put completed after every delete, yet the key is gone.
	b := newHB(1).
		op(0, OpDelete, 0, 5, 0, true, 0).
		op(0, OpPut, 1, 5, 1, true, 0).
		final(map[uint64]uint64{})
	wantCode(t, CheckMapLWW(&b.h), "final-lost")
}

func TestMapFinalStaleFlagged(t *testing.T) {
	// The only put of value 1 was durably overwritten, yet value 1
	// survived as the final state.
	b := newHB(1).
		op(0, OpPut, 0, 5, 1, true, 0).
		op(0, OpPut, 1, 5, 2, true, 0).
		final(map[uint64]uint64{5: 1})
	wantCode(t, CheckMapLWW(&b.h), "final-stale")
}

func TestMapFinalPhantomFlagged(t *testing.T) {
	b := newHB(1).
		op(0, OpPut, 0, 5, 1, true, 0).
		final(map[uint64]uint64{5: 9})
	wantCode(t, CheckMapLWW(&b.h), "final-phantom")
}

func TestMapKnownGoodPasses(t *testing.T) {
	b := newHB(2).
		op(0, OpPut, 0, 5, 1, true, 0).
		op(1, OpGet, 0, 5, 0, true, 1).
		op(0, OpDelete, 1, 5, 0, true, 0).
		op(1, OpGet, 1, 5, 0, false, 0).
		op(0, OpPut, 2, 5, 7, true, 0).
		final(map[uint64]uint64{5: 7})
	wantClean(t, CheckMapLWW(&b.h))
}

// --- Detectability cross-check ---

func TestDetectabilityAgreesPasses(t *testing.T) {
	b := newHB(2).
		op(0, OpEnq, 0, 100, 0, true, 0).
		op(0, OpDeq, 0, 0, 0, true, 100).
		op(1, OpEnq, 0, 200, 0, true, 0).
		inflight(1, OpDeq, 1, 0, 0) // announced, beyond the watermark: dropped in flight
	wantClean(t, CheckDetectability(&b.h, []uint64{1, 1}))
}

func TestDetectabilityCompletedButDeniedFlagged(t *testing.T) {
	b := newHB(1).op(0, OpEnq, 3, 100, 0, true, 0)
	wantCode(t, CheckDetectability(&b.h, []uint64{2}), "completed-but-denied")
}

func TestDetectabilityUntracedOpFlagged(t *testing.T) {
	b := newHB(1).op(0, OpEnq, 0, 100, 0, true, 0)
	// Restart pointer claims 3 ops committed; ids 1 and 2 never traced.
	vs := CheckDetectability(&b.h, []uint64{3})
	wantCode(t, vs, "untraced-op")
	n := 0
	for _, v := range vs {
		if v.Code == "untraced-op" {
			n++
		}
	}
	if n != 2 {
		t.Errorf("want 2 untraced ops, got %d: [%s]", n, codes(vs))
	}
}

func TestDetectabilityUnreturnedCompletedFlagged(t *testing.T) {
	b := newHB(1).inflight(0, OpEnq, 0, 100, 0)
	wantCode(t, CheckDetectability(&b.h, []uint64{1}), "unreturned-completed")
}

func TestDetectabilityMissingVerdicts(t *testing.T) {
	b := newHB(2).op(0, OpEnq, 0, 100, 0, true, 0)
	wantCode(t, CheckDetectability(&b.h, []uint64{1}), "missing-verdicts")
}

// --- Artifact round-trip ---

func TestArtifactWrite(t *testing.T) {
	b := newHB(2).
		op(0, OpEnq, 0, 100, 0, true, 0).
		op(0, OpDeq, 0, 0, 0, true, 100).
		op(1, OpDeq, 0, 0, 0, true, 100)
	vs := CheckQueueFIFO(&b.h)
	if len(vs) == 0 {
		t.Fatal("expected violations")
	}
	meta := RunMeta{Stresser: "general", Family: "queue", Seed: 3, Shared: true, Procs: 2}
	a := NewArtifact(meta, &b.h, vs, pmemStatsForTest())
	if len(a.MinimalOps) == 0 {
		t.Fatal("artifact has no witness operations")
	}
	dir := t.TempDir()
	path, err := WriteArtifact(dir, a)
	if err != nil {
		t.Fatalf("WriteArtifact: %v", err)
	}
	if filepath.Base(path) != "history-general-seed3-shared.json" {
		t.Errorf("artifact name %q does not encode the repro coordinates", filepath.Base(path))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading artifact back: %v", err)
	}
	var back Artifact
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if back.Seed != 3 || back.Family != "queue" || len(back.Violations) != len(vs) {
		t.Errorf("round-trip mangled the artifact: %+v", back.RunMeta)
	}
}

package qnode

import (
	"strings"
	"testing"

	"delayfree/internal/pmem"
)

// Unit tests for the packed batch pool: extent addressing through the
// arena, zero-traffic allocation, flush accounting, rollback reuse,
// retire-driven segment recycling with the epoch guard, duplicate-
// retire suppression, and the two defensive panics (double free,
// exhaustion).

const (
	ptSegNodes = 8 // 2 lines per segment
	ptNseg     = 3
	ptArenaCap = 16
	ptProcs    = 2
)

func packedFixture(t *testing.T) (*pmem.Memory, *Arena, *PackedPool) {
	t.Helper()
	words := uint64(ptArenaCap+8)*pmem.WordsPerLine + PackedWords(ptSegNodes, ptNseg) + 1<<12
	mem := pmem.New(pmem.Config{Words: words, Mode: pmem.Private, Checked: true, Seed: 11})
	arena := NewArena(mem, ptArenaCap)
	return mem, arena, NewPackedPool(mem, arena, ptSegNodes, ptNseg, ptProcs)
}

// allocBatch opens a batch, allocates n nodes and returns their
// indices, leaving the batch open.
func allocBatch(pp *PackedPool, n int) []uint32 {
	pp.BeginBatch()
	ns := make([]uint32, n)
	for i := range ns {
		ns[i] = pp.Alloc()
	}
	return ns
}

func TestPackedAddressing(t *testing.T) {
	mem, arena, pp := packedFixture(t)
	if pp.Lo() != arena.Cap()+1 {
		t.Fatalf("extent starts at %d, want first index past the arena (%d)", pp.Lo(), arena.Cap()+1)
	}
	if pp.Hi() != pp.Lo()+ptSegNodes*ptNseg {
		t.Fatalf("extent ends at %d, want %d", pp.Hi(), pp.Lo()+ptSegNodes*ptNseg)
	}
	ns := allocBatch(pp, PackedNodesPerLine+1)
	defer pp.Commit()
	for i, n := range ns {
		if !arena.IsPacked(n) {
			t.Fatalf("alloc %d returned %d, not recognized as packed", i, n)
		}
		if n != pp.Lo()+uint32(i) {
			t.Fatalf("alloc %d returned %d, want contiguous %d", i, n, pp.Lo()+uint32(i))
		}
	}
	// Packed nodes are PackedNodeWords apart and PackedNodesPerLine of
	// them share a cache line; the base arena's nodes are a line apart.
	if d := arena.Addr(ns[1]) - arena.Addr(ns[0]); d != PackedNodeWords {
		t.Fatalf("packed node stride %d words, want %d", d, PackedNodeWords)
	}
	line0 := arena.Addr(ns[0]) / pmem.WordsPerLine
	if l := arena.Addr(ns[PackedNodesPerLine-1]) / pmem.WordsPerLine; l != line0 {
		t.Fatalf("node %d on line %d, want packed onto line %d", PackedNodesPerLine-1, l, line0)
	}
	if l := arena.Addr(ns[PackedNodesPerLine]) / pmem.WordsPerLine; l != line0+1 {
		t.Fatalf("node %d on line %d, want next line %d", PackedNodesPerLine, l, line0+1)
	}
	if d := arena.Addr(2) - arena.Addr(1); d != pmem.WordsPerLine {
		t.Fatalf("base arena node stride %d words, want one line (%d)", d, pmem.WordsPerLine)
	}
	if arena.IsPacked(1) {
		t.Fatal("base arena index 1 claims to be packed")
	}
	// Val/Next resolve through the extent too.
	if arena.Val(ns[0]) != arena.Addr(ns[0])+OffVal || arena.Next(ns[0]) != arena.Addr(ns[0])+OffNext {
		t.Fatal("Val/Next offsets wrong for packed node")
	}
	// A second pool stacks after the first (Arena.End).
	pp2 := NewPackedPool(mem, arena, ptSegNodes, 1, ptProcs)
	if pp2.Lo() != pp.Hi() {
		t.Fatalf("second extent starts at %d, want %d", pp2.Lo(), pp.Hi())
	}
}

func TestPackedAllocIsVolatileAndFlushBatchCountsLines(t *testing.T) {
	mem, arena, pp := packedFixture(t)
	p := mem.NewPort()
	before := p.Stats
	ns := allocBatch(pp, 2*PackedNodesPerLine+1) // 9 nodes: 2 full lines + 1
	if d := p.Stats.Sub(before); d.Writes != 0 || d.Flushes != 0 || d.CASes != 0 || d.Reads != 0 {
		t.Fatalf("allocation issued memory traffic: %+v", d)
	}
	for _, n := range ns {
		p.Write(arena.Val(n), 0xF00+uint64(n))
	}
	before = p.Stats
	pp.FlushBatch(p)
	// 9 packed nodes: 8 fill segment 0 (2 lines), the 9th opens
	// segment 1 (1 line) — 3 touched lines, one Flush each.
	if d := p.Stats.Sub(before); d.Flushes != 3 {
		t.Fatalf("FlushBatch issued %d flushes for 9 nodes, want 3 (one per touched line)", d.Flushes)
	}
	pp.Commit()
	if pp.Epoch() != 1 {
		t.Fatalf("epoch %d after one commit", pp.Epoch())
	}
}

func TestPackedRollbackReusesSlots(t *testing.T) {
	_, _, pp := packedFixture(t)
	first := allocBatch(pp, ptSegNodes+3) // spans segments 0 and 1
	pp.Rollback()
	if pp.RolledBack() != 1 {
		t.Fatalf("RolledBack() = %d, want 1", pp.RolledBack())
	}
	second := allocBatch(pp, ptSegNodes+3)
	pp.Commit()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("rollback leaked: slot %d was %d, reallocated as %d", i, first[i], second[i])
		}
	}
	// Rollback with no open batch is a tolerated no-op (the restart
	// wrapper calls it unconditionally).
	pp.Rollback()
	if pp.RolledBack() != 1 {
		t.Fatalf("no-op Rollback counted: %d", pp.RolledBack())
	}
}

func TestPackedRetireRecyclesSegments(t *testing.T) {
	_, _, pp := packedFixture(t)
	// Fill segment 0 exactly, then one more batch to move the cursor
	// off it (sealing it) — then retire all of segment 0.
	ns := allocBatch(pp, ptSegNodes)
	pp.Commit()
	allocBatch(pp, 1)
	pp.Commit() // epoch 2; Alloc sealed segment 0 on the switch
	for _, n := range ns {
		pp.Retire(0, n)
	}
	if pp.Recycled() != 1 {
		t.Fatalf("Recycled() = %d after fully retiring a sealed segment, want 1", pp.Recycled())
	}
	// Epoch guard: segment 0 was reclaimed at epoch 2 with
	// readyEpoch 3, so a segment switch before the next commit (the
	// mid-batch switch below happens while epoch is still 2) must take
	// a fresh segment, never recycle into the epoch that retired it.
	second := allocBatch(pp, ptSegNodes) // 7 fill segment 1, the 8th switches
	pp.Commit()                          // epoch 3
	if got := (second[ptSegNodes-1] - pp.Lo()) / ptSegNodes; got != 2 {
		t.Fatalf("switch at reclaim epoch landed in segment %d, want fresh segment 2 (epoch guard)", got)
	}
	// The guard has passed (epoch 3 >= readyEpoch 3): the next switch
	// must reuse recycled segment 0 — the pool has no fresh segment
	// left, so anything else would panic as exhausted.
	third := allocBatch(pp, ptSegNodes) // 7 fill segment 2, the 8th switches
	pp.Commit()
	if got := (third[ptSegNodes-1] - pp.Lo()) / ptSegNodes; got != 0 {
		t.Fatalf("post-guard switch landed in segment %d, want recycled segment 0", got)
	}
}

func TestPackedRetireDuplicateSuppressed(t *testing.T) {
	_, _, pp := packedFixture(t)
	ns := allocBatch(pp, 2)
	pp.Commit()
	pp.Retire(0, ns[0])
	pp.Retire(0, ns[0]) // capsule replay's duplicate: same pid, same node
	pp.Retire(1, ns[1])
	// live must now be 0, not -1; a third distinct retire would panic.
	defer func() {
		if recover() == nil {
			t.Fatal("triple retire of a 2-node segment did not panic (duplicate was not suppressed)")
		}
	}()
	pp.Retire(1, ns[0]) // genuine double free: different pid re-retires ns[0]
}

func TestPackedExhaustionPanics(t *testing.T) {
	_, _, pp := packedFixture(t)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("over-allocating an un-retired pool did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "exhausted") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	allocBatch(pp, ptSegNodes*ptNseg+1)
}

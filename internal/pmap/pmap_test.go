package pmap

import (
	"math/rand"
	"testing"

	"delayfree/internal/capsule"
	"delayfree/internal/pmem"
	"delayfree/internal/proc"
)

// fixture builds a ready-to-use map plus one capsule machine per
// process for direct Invokes.
func fixture(t testing.TB, cfg Config, initial map[uint64]uint64) (*proc.Runtime, *Map, []*capsule.Machine) {
	t.Helper()
	if cfg.Mem == nil {
		cfg.Mem = pmem.New(pmem.Config{Words: Words(cfg.Buckets, cfg.Shards, cfg.P) + uint64(cfg.P)*capsule.ProcWords + 1<<13})
	}
	rt := proc.NewRuntime(cfg.Mem, cfg.P)
	m := New(cfg)
	setup := cfg.Mem.NewPort()
	m.Init(setup, initial)
	m.Bind(rt)
	reg := capsule.NewRegistry()
	m.Register(reg)
	bases := capsule.AllocProcAreas(cfg.Mem, cfg.P)
	machines := make([]*capsule.Machine, cfg.P)
	for i := 0; i < cfg.P; i++ {
		capsule.InstallIdle(rt.Proc(i).Mem(), bases[i], reg, m.Routine())
		machines[i] = capsule.NewMachine(rt.Proc(i), reg, bases[i])
	}
	return rt, m, machines
}

func get(mach *capsule.Machine, m *Map, k uint64) (uint64, bool) {
	r := mach.Invoke(m.Routine(), m.GetEntry(), k)
	return r[1], r[0] != 0
}

func put(mach *capsule.Machine, m *Map, k, v uint64) bool {
	return mach.Invoke(m.Routine(), m.PutEntry(), k, v)[0] != 0
}

func del(mach *capsule.Machine, m *Map, k uint64) bool {
	return mach.Invoke(m.Routine(), m.DelEntry(), k)[0] != 0
}

func cas(mach *capsule.Machine, m *Map, k, old, new uint64) bool {
	return mach.Invoke(m.Routine(), m.CasEntry(), k, old, new)[0] != 0
}

func TestBasicOps(t *testing.T) {
	for _, opt := range []bool{false, true} {
		rt, m, ms := fixture(t, Config{P: 1, Buckets: 32, Opt: opt}, nil)
		mc := ms[0]
		if _, ok := get(mc, m, 7); ok {
			t.Fatal("get on empty map")
		}
		if !put(mc, m, 7, 700) {
			t.Fatal("put failed")
		}
		if v, ok := get(mc, m, 7); !ok || v != 700 {
			t.Fatalf("get: %d %v", v, ok)
		}
		if !put(mc, m, 7, 701) { // overwrite
			t.Fatal("overwrite failed")
		}
		if v, _ := get(mc, m, 7); v != 701 {
			t.Fatalf("after overwrite: %d", v)
		}
		if !cas(mc, m, 7, 701, 702) {
			t.Fatal("cas with correct expectation failed")
		}
		if cas(mc, m, 7, 701, 703) {
			t.Fatal("stale cas succeeded")
		}
		if v, _ := get(mc, m, 7); v != 702 {
			t.Fatalf("after cas: %d", v)
		}
		if !del(mc, m, 7) {
			t.Fatal("delete of present key reported no bucket")
		}
		if _, ok := get(mc, m, 7); ok {
			t.Fatal("get after delete")
		}
		if del(mc, m, 99) {
			t.Fatal("delete of never-inserted key reported a bucket")
		}
		// Value zero is a legal user value (internal +1 encoding).
		if !put(mc, m, 8, 0) {
			t.Fatal("put of zero value")
		}
		if v, ok := get(mc, m, 8); !ok || v != 0 {
			t.Fatalf("zero value: %d %v", v, ok)
		}
		if got := m.Len(rt.Proc(0).Mem()); got != 1 {
			t.Fatalf("len %d", got)
		}
	}
}

func TestCollisionsAndFullTable(t *testing.T) {
	_, m, ms := fixture(t, Config{P: 1, Buckets: 8}, nil)
	mc := ms[0]
	// 8 buckets, 1 shard: 8 distinct keys fill the table.
	for k := uint64(1); k <= 8; k++ {
		if !put(mc, m, k, k*10) {
			t.Fatalf("put %d failed with space left", k)
		}
	}
	if put(mc, m, 9, 90) {
		t.Fatal("put into a full table succeeded")
	}
	// Existing keys still fully operational (probing wraps).
	for k := uint64(1); k <= 8; k++ {
		if v, ok := get(mc, m, k); !ok || v != k*10 {
			t.Fatalf("get %d after fill: %d %v", k, v, ok)
		}
	}
	// Tombstoned buckets keep their key: the table stays full for new
	// keys (documented fixed-capacity behaviour)...
	if !del(mc, m, 3) {
		t.Fatal("delete failed")
	}
	if put(mc, m, 9, 90) {
		t.Fatal("tombstone freed a bucket for a new key")
	}
	// ...but the deleted key itself can come back.
	if !put(mc, m, 3, 33) {
		t.Fatal("re-put of deleted key failed")
	}
	if v, ok := get(mc, m, 3); !ok || v != 33 {
		t.Fatalf("re-put: %d %v", v, ok)
	}
}

func TestInitialContentsAndSharding(t *testing.T) {
	initial := map[uint64]uint64{}
	for k := uint64(1); k <= 200; k++ {
		initial[k] = k * 3
	}
	rt, m, ms := fixture(t, Config{P: 2, Buckets: 512, Shards: 4}, initial)
	if m.Shards() != 4 {
		t.Fatalf("shards %d", m.Shards())
	}
	port := rt.Proc(0).Mem()
	if got := m.Len(port); got != 200 {
		t.Fatalf("len %d", got)
	}
	for k := uint64(1); k <= 200; k++ {
		if v, ok := get(ms[0], m, k); !ok || v != k*3 {
			t.Fatalf("seeded key %d: %d %v", k, v, ok)
		}
	}
	dump := m.Dump(port)
	if len(dump) != 200 || dump[17] != 51 {
		t.Fatalf("dump: %d keys, dump[17]=%d", len(dump), dump[17])
	}
}

func TestSequentialModelEquivalence(t *testing.T) {
	_, m, ms := fixture(t, Config{P: 1, Buckets: 64, Shards: 2}, nil)
	mc := ms[0]
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4000; i++ {
		k := uint64(rng.Intn(24) + 1)
		switch rng.Intn(4) {
		case 0, 1:
			v := uint64(i)
			model[k] = v
			if !put(mc, m, k, v) {
				t.Fatalf("put %d", k)
			}
		case 2:
			delete(model, k)
			del(mc, m, k)
		default:
			v, ok := get(mc, m, k)
			mv, mok := model[k]
			if ok != mok || (ok && v != mv) {
				t.Fatalf("op %d: get(%d) = %d,%v want %d,%v", i, k, v, ok, mv, mok)
			}
		}
	}
}

func TestConcurrentDriversCrashFree(t *testing.T) {
	const P, ops, keys = 4, 400, 16
	mem := pmem.New(pmem.Config{Words: Words(256, 2, P) + P*capsule.ProcWords + 1<<13})
	rt := proc.NewRuntime(mem, P)
	m := New(Config{Mem: mem, P: P, Buckets: 256, Shards: 2})
	setup := mem.NewPort()
	m.Init(setup, nil)
	m.Bind(rt)
	scripts := make([][]Op, P)
	model := map[uint64]uint64{}
	for pid := 0; pid < P; pid++ {
		ks := make([]uint64, keys)
		for j := range ks {
			ks[j] = uint64(pid)<<32 | uint64(j+1)
		}
		scripts[pid] = Script(pid, ops, ks, int64(pid)+1, 25)
		Apply(model, scripts[pid])
	}
	reg := capsule.NewRegistry()
	m.Register(reg)
	drv := RegisterScriptDriver(reg, m, scripts, nil, nil)
	bases := capsule.AllocProcAreas(mem, P)
	for i := 0; i < P; i++ {
		capsule.Install(rt.Proc(i).Mem(), bases[i], reg, drv)
	}
	rt.RunToCompletion(func(i int) proc.Program {
		return func(p *proc.Proc) {
			capsule.NewMachine(p, reg, bases[i]).Run()
		}
	})
	got := m.Dump(setup)
	if len(got) != len(model) {
		t.Fatalf("map has %d keys, model %d", len(got), len(model))
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("key %#x: %d want %d", k, got[k], v)
		}
	}
}

func TestVolatileModelEquivalence(t *testing.T) {
	mem := pmem.New(pmem.Config{Words: 1 << 12})
	port := mem.NewPort()
	vm := NewVolatile(mem, 64)
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 4000; i++ {
		k := uint64(rng.Intn(30) + 1)
		switch rng.Intn(5) {
		case 0, 1:
			v := uint64(i)
			model[k] = v
			if !vm.Put(port, k, v) {
				t.Fatalf("put %d", k)
			}
		case 2:
			delete(model, k)
			vm.Delete(port, k)
		case 3:
			old, mok := model[k]
			if mok {
				if !vm.Cas(port, k, old, old+7) {
					t.Fatalf("cas %d", k)
				}
				model[k] = old + 7
			}
		default:
			v, ok := vm.Get(port, k)
			mv, mok := model[k]
			if ok != mok || (ok && v != mv) {
				t.Fatalf("op %d: get(%d) = %d,%v want %d,%v", i, k, v, ok, mv, mok)
			}
		}
	}
}

func TestCasRejectsReservedExpected(t *testing.T) {
	// Cas(k, 2^64-1, v) would +1-wrap the expectation to the tombstone
	// encoding and resurrect a deleted key; both map flavours must
	// refuse it.
	_, m, ms := fixture(t, Config{P: 1, Buckets: 16}, nil)
	put(ms[0], m, 5, 50)
	del(ms[0], m, 5)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("capsule Cas accepted reserved expected value")
			}
		}()
		cas(ms[0], m, 5, ^uint64(0), 1)
	}()
	mem := pmem.New(pmem.Config{Words: 1 << 12})
	port := mem.NewPort()
	vm := NewVolatile(mem, 16)
	vm.Put(port, 5, 50)
	vm.Delete(port, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("volatile Cas accepted reserved expected value")
		}
	}()
	vm.Cas(port, 5, ^uint64(0), 1)
}

func TestGeometryRounding(t *testing.T) {
	m := New(Config{Mem: pmem.New(pmem.Config{Words: 1 << 12}), P: 1, Buckets: 100, Shards: 3})
	if m.Shards() != 4 {
		t.Fatalf("shards %d", m.Shards())
	}
	if m.Buckets() != 4*32 {
		t.Fatalf("buckets %d", m.Buckets())
	}
}

// TestGetPersistenceFree pins the read-only fast lane's acceptance
// property end-to-end: a Get — probe, value resolution and completion
// included — issues zero writes, CASes, flushes, fences and persisted
// boundaries, in both frame flavours and in the durable shared-model
// configuration the benchmarks run. Every Get terminal is elided.
func TestGetPersistenceFree(t *testing.T) {
	for _, opt := range []bool{false, true} {
		mem := pmem.New(pmem.Config{
			Words: Words(64, 1, 1) + capsule.ProcWords + 1<<13,
			Mode:  pmem.Shared,
		})
		rt, m, ms := fixture(t, Config{Mem: mem, P: 1, Buckets: 64, Opt: opt, Durable: true},
			map[uint64]uint64{7: 700, 8: 800})
		mc := ms[0]
		// Warm up: one hit and one miss, then measure a steady-state batch.
		get(mc, m, 7)
		get(mc, m, 9999)
		port := rt.Proc(0).Mem()
		before := port.Stats
		const N = 100
		for i := 0; i < N; i++ {
			if v, ok := get(mc, m, 7+uint64(i%2)); !ok || v != 700+100*uint64(i%2) {
				t.Fatalf("opt=%v get: %d %v", opt, v, ok)
			}
			get(mc, m, 9999) // miss: full probe to an empty bucket
		}
		st := port.Stats
		if st.Writes != before.Writes || st.CASes != before.CASes ||
			st.Flushes != before.Flushes || st.Fences != before.Fences ||
			st.Boundaries != before.Boundaries {
			t.Fatalf("opt=%v: Get issued persistence work: before %+v after %+v", opt, before, st)
		}
		// Under a light Invoke a Get is one capsule ending in a volatile
		// completion, which counts in neither boundary stat — a benched
		// Get is invisible to the persistence accounting entirely. (In
		// the Call-driven crash-stress shape the same Get ends in an
		// ordinary committed Return.)
		if st.BoundariesElided != before.BoundariesElided {
			t.Fatalf("opt=%v: light Gets counted %d elided terminals, want 0",
				opt, st.BoundariesElided-before.BoundariesElided)
		}
	}
}

// TestPutCoalescesFlushes pins the write-combining layer on the map's
// Put path: over full two-copy frames, the probe capsule's boundary
// persists the key, value and resolved-bucket locals with one flush per
// written word, and the same-line repeats coalesce — so effective
// flushes per Put are strictly below issued flushes, where before the
// layer the two were equal by definition.
func TestPutCoalescesFlushes(t *testing.T) {
	rt, m, ms := fixture(t, Config{P: 1, Buckets: 128, Opt: false, Durable: true}, nil)
	mc := ms[0]
	port := rt.Proc(0).Mem()
	before := port.Stats
	const puts = 64
	for i := uint64(1); i <= puts; i++ {
		if !put(mc, m, i, i*10) {
			t.Fatalf("put %d failed", i)
		}
	}
	issued := port.Stats.Flushes - before.Flushes
	coalesced := port.Stats.CoalescedFlushes - before.CoalescedFlushes
	if issued == 0 {
		t.Fatal("puts issued no flushes")
	}
	if coalesced == 0 {
		t.Fatalf("no coalescing on the Put path: %d issued", issued)
	}
	if coalesced >= issued {
		t.Fatalf("coalesced %d >= issued %d", coalesced, issued)
	}
	// At least one repeat per Put boundary (key and value slots share a
	// frame line).
	if coalesced < puts {
		t.Fatalf("expected >= %d coalesced flushes, got %d", puts, coalesced)
	}
}

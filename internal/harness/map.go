package harness

import (
	"math/rand"

	"delayfree/internal/capsule"
	"delayfree/internal/pmap"
	"delayfree/internal/proc"
)

// The map workload family: every thread runs Config.Pairs*2 operations
// against a pre-filled map of map-keys keys, read-pct percent of them
// Gets and the rest a rotating Put/Delete/Cas mix, with per-thread
// deterministic RNG. The three kinds bracket the cost of
// recoverability exactly as the queue kinds do: map-volatile is the
// unprotected baseline, pmap the full capsule+writable-CAS map, and
// pmap-sharded the same striped across map-shards segments.

// Kinds of the map family.
const (
	KindPmap        = "pmap"
	KindPmapSharded = "pmap-sharded"
	KindMapVolatile = "map-volatile"
)

// mapGeom resolves a map kind's key space and segment count, as given:
// only pmap-sharded reads map-shards.
func mapGeom(kind string, cfg Config) (keys, shards int) {
	keys, shards = int(cfg.Param("map-keys")), 1
	if kind == KindPmapSharded {
		shards = int(cfg.Param("map-shards"))
	}
	return keys, shards
}

// mapOps is one process's handle on a map kind: the four operations
// mapLoop issues.
type mapOps struct {
	get func(k uint64) (uint64, bool)
	put func(k, v uint64)
	del func(k uint64)
	cas func(k, old, new uint64)
}

// pmapOps runs each operation on m as a recoverable Invoke of mach.
func pmapOps(m *pmap.Map, mach *capsule.Machine) mapOps {
	return mapOps{
		get: func(k uint64) (uint64, bool) {
			r := mach.Invoke(m.Routine(), m.GetEntry(), k)
			return r[1], r[0] != 0
		},
		put: func(k, v uint64) { mach.Invoke(m.Routine(), m.PutEntry(), k, v) },
		del: func(k uint64) { mach.Invoke(m.Routine(), m.DelEntry(), k) },
		cas: func(k, old, new uint64) { mach.Invoke(m.Routine(), m.CasEntry(), k, old, new) },
	}
}

// prefill is a map kind's initial contents: keys 1..keys, each mapped
// to itself.
func prefill(keys int) map[uint64]uint64 {
	initial := make(map[uint64]uint64, keys)
	for k := 1; k <= keys; k++ {
		initial[uint64(k)] = uint64(k)
	}
	return initial
}

// mapLoop is process i's operation stream, the same for every
// unbatched map kind: cfg.Pairs*2 operations on keys drawn from a
// per-process seeded RNG, read-pct percent of them Gets and the rest
// rotating Put / Delete / Get+Cas.
func mapLoop(cfg Config, i int, ops mapOps) {
	keys := int(cfg.Param("map-keys"))
	readPct := int(cfg.Param("read-pct"))
	rng := rand.New(rand.NewSource(int64(i) + 1))
	for n := 0; n < cfg.Pairs*2; n++ {
		k := uint64(rng.Intn(keys) + 1)
		if rng.Intn(100) < readPct {
			ops.get(k)
			continue
		}
		switch n % 3 {
		case 0:
			ops.put(k, uint64(n))
		case 1:
			ops.del(k)
		default:
			if old, ok := ops.get(k); ok {
				ops.cas(k, old, old+1)
			}
		}
	}
}

// runMapKind dispatches one of the unbatched map kinds.
func runMapKind(kind string, cfg Config) Result {
	keys, shards := mapGeom(kind, cfg)
	buckets := 2 * keys // load factor ½ after pre-fill
	mem, rt := newMachine(cfg, cfg.Threads, pmap.Words(buckets, shards, cfg.Threads)+uint64(keys)*4)
	setup := mem.NewPort()
	var handle func(p *proc.Proc) mapOps
	if kind == KindMapVolatile {
		vm := pmap.NewVolatile(mem, buckets)
		for k := 1; k <= keys; k++ {
			vm.Put(setup, uint64(k), uint64(k))
		}
		handle = func(p *proc.Proc) mapOps {
			port := p.Mem()
			return mapOps{
				get: func(k uint64) (uint64, bool) { return vm.Get(port, k) },
				put: func(k, v uint64) { vm.Put(port, k, v) },
				del: func(k uint64) { vm.Delete(port, k) },
				cas: func(k, old, new uint64) { vm.Cas(port, k, old, new) },
			}
		}
	} else {
		m := pmap.New(pmap.Config{
			Mem:     mem,
			P:       cfg.Threads,
			Buckets: buckets,
			Shards:  shards,
			Opt:     true,
			Durable: true,
		})
		m.Init(setup, prefill(keys))
		m.Bind(rt)
		reg := capsule.NewRegistry()
		m.Register(reg)
		bases := idle(mem, rt, cfg.Threads, reg, m.Routine())
		handle = func(p *proc.Proc) mapOps {
			return pmapOps(m, capsule.NewMachine(p, reg, bases[p.ID()]))
		}
	}
	return timed(cfg, rt, func(i int) proc.Program {
		return func(p *proc.Proc) { mapLoop(cfg, i, handle(p)) }
	})
}

package harness

import (
	"math/rand"
	"time"

	"delayfree/internal/capsule"
	"delayfree/internal/pmap"
	"delayfree/internal/pmem"
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

// runMapKind dispatches one of the map kinds.
func runMapKind(kind string, cfg Config) Result {
	keys, shards := mapGeom(kind, cfg)
	buckets := 2 * keys // load factor ½ after pre-fill
	ops := cfg.Pairs * 2
	readPct := int(cfg.Param("read-pct"))

	words := pmap.Words(buckets, shards, cfg.Threads) +
		uint64(cfg.Threads)*capsule.ProcWords + uint64(keys)*4 + 1<<16
	mem := pmem.New(pmem.Config{
		Words:      words,
		Mode:       pmem.Shared,
		FlushDelay: cfg.FlushDelay,
		FenceDelay: cfg.FenceDelay,
	})
	rt := proc.NewRuntime(mem, cfg.Threads)

	if kind == KindMapVolatile {
		vm := pmap.NewVolatile(mem, buckets)
		setup := mem.NewPort()
		for k := 1; k <= keys; k++ {
			vm.Put(setup, uint64(k), uint64(k))
		}
		start := time.Now()
		rt.RunToCompletion(func(i int) proc.Program {
			return func(p *proc.Proc) {
				port := p.Mem()
				rng := rand.New(rand.NewSource(int64(i) + 1))
				for n := 0; n < ops; n++ {
					k := uint64(rng.Intn(keys) + 1)
					if rng.Intn(100) < readPct {
						vm.Get(port, k)
						continue
					}
					switch n % 3 {
					case 0:
						vm.Put(port, k, uint64(n))
					case 1:
						vm.Delete(port, k)
					default:
						old, ok := vm.Get(port, k)
						if ok {
							vm.Cas(port, k, old, old+1)
						}
					}
				}
			}
		})
		return collect(cfg, rt, start)
	}

	initial := make(map[uint64]uint64, keys)
	for k := 1; k <= keys; k++ {
		initial[uint64(k)] = uint64(k)
	}
	m := pmap.New(pmap.Config{
		Mem:     mem,
		P:       cfg.Threads,
		Buckets: buckets,
		Shards:  shards,
		Opt:     true,
		Durable: true,
	})
	setup := mem.NewPort()
	m.Init(setup, initial)
	m.Bind(rt)
	reg := capsule.NewRegistry()
	m.Register(reg)
	bases := capsule.AllocProcAreas(mem, cfg.Threads)
	for i := 0; i < cfg.Threads; i++ {
		capsule.InstallIdle(rt.Proc(i).Mem(), bases[i], reg, m.Routine())
	}
	start := time.Now()
	rt.RunToCompletion(func(i int) proc.Program {
		return func(p *proc.Proc) {
			mach := capsule.NewMachine(p, reg, bases[i])
			rng := rand.New(rand.NewSource(int64(i) + 1))
			for n := 0; n < ops; n++ {
				k := uint64(rng.Intn(keys) + 1)
				if rng.Intn(100) < readPct {
					mach.Invoke(m.Routine(), m.GetEntry(), k)
					continue
				}
				switch n % 3 {
				case 0:
					mach.Invoke(m.Routine(), m.PutEntry(), k, uint64(n))
				case 1:
					mach.Invoke(m.Routine(), m.DelEntry(), k)
				default:
					r := mach.Invoke(m.Routine(), m.GetEntry(), k)
					if r[0] != 0 {
						mach.Invoke(m.Routine(), m.CasEntry(), k, r[1], r[1]+1)
					}
				}
			}
		}
	})
	return collect(cfg, rt, start)
}

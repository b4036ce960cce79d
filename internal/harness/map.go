package harness

import (
	"fmt"
	"math/rand"
	"time"

	"delayfree/internal/capsule"
	"delayfree/internal/pmap"
	"delayfree/internal/pmem"
	"delayfree/internal/proc"
	"delayfree/internal/workload"
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

func init() {
	workload.RegisterParams(
		workload.Param{Name: "read-pct", Default: 90,
			Help: "map family: percentage of Get operations"},
		workload.Param{Name: "map-keys", Default: 2048,
			Help: "map family: key-space size (table sized for load factor 1/2)"},
		workload.Param{Name: "map-shards", Default: 4,
			Help: "map family: segments of the pmap-sharded kind"},
	)
	for _, kind := range []string{KindMapVolatile, KindPmap, KindPmapSharded} {
		workload.RegisterBencher(workload.Bencher{
			Kind:   kind,
			Family: "map",
			Run:    func(cfg Config) Result { return runMapKind(kind, cfg) },
		})
	}
	workload.RegisterFigure("map", plain(KindMapVolatile, KindPmap, KindPmapSharded)...)

	// The readheavy figure sweeps the read mix: each point pins read-pct
	// to one of {0, 50, 90, 99}, so one benchfigs invocation measures
	// the whole Get-fraction curve for both recoverable map kinds. It is
	// the read-only fast lane's acceptance figure: Get is
	// persistence-free (zero flushes, fences, CASes and boundaries), so
	// throughput rises and eff-flushes/op falls monotonically with the
	// read fraction. The write-only point (r0) improves too — write-op
	// *probes* ride the same fast lane (volatile wcas key reads, elided
	// probe boundaries until the first claim) while every durability
	// point of the write itself is unchanged.
	var readheavy []workload.Point
	for _, rp := range []int64{0, 50, 90, 99} {
		for _, kind := range []string{KindPmap, KindPmapSharded} {
			readheavy = append(readheavy, workload.Point{
				Label:  fmt.Sprintf("%s-r%d", kind, rp),
				Kind:   kind,
				Params: workload.Params{"read-pct": rp},
			})
		}
	}
	workload.RegisterFigure("readheavy", readheavy...)
}

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

package harness

import (
	"fmt"
	"math/rand"
	"time"

	"delayfree/internal/capsule"
	"delayfree/internal/ingress"
	"delayfree/internal/pmap"
	"delayfree/internal/pmem"
	"delayfree/internal/pqueue"
	"delayfree/internal/proc"
	"delayfree/internal/pstack"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
	"delayfree/internal/workload"
)

// The batched kinds: cfg.Threads producer processes publish operation
// records into the ingress rings fire-and-forget (ring backpressure is
// the only wait), and ingress-shards combiner processes drain batches
// of up to batch-max records, applying each batch inside one capsule
// span with one PersistEpoch. Ops counts the producers' operations
// (2*Pairs per producer, matching the unbatched kinds' op count);
// Stats sums every process including the combiners, so fences/op and
// flushes/op are directly comparable with the unbatched kinds.
//
// Reads are not routed through the rings: the pmap-batched kind issues
// its read-pct share of Gets inline on the producer via the read-only
// fast lane, exactly as the unbatched pmap kind does.

// Kinds of the batched ingress family front-ends.
const (
	KindQueueBatched = "pqueue-batched"
	KindStackBatched = "pstack-batched"
	KindMapBatched   = "pmap-batched"
)

func init() {
	workload.RegisterParams(
		workload.Param{Name: "batch-max", Default: 64,
			Help: "batched kinds: max operations per combiner batch"},
		workload.Param{Name: "ingress-shards", Default: 1,
			Help: "batched kinds: MPSC ring/combiner shards"},
		workload.Param{Name: "batch-window", Default: 2048,
			Help: "pmap-batched: deferred Ptr swings per group-commit close fence"},
	)
	workload.RegisterBencher(workload.Bencher{Kind: KindQueueBatched, Family: "queue", Run: runQueueBatched})
	workload.RegisterBencher(workload.Bencher{Kind: KindStackBatched, Family: "stack", Run: runStackBatched})
	workload.RegisterBencher(workload.Bencher{Kind: KindMapBatched, Family: "map",
		Run: func(cfg Config) Result { return runMapBatched(KindMapBatched, cfg) }})

	// The batching figure sweeps batch size over every family, with the
	// strongest unbatched kind of each family as the 1x reference. The
	// map points pin read-pct 0 (write-only) so the batch-size curve is
	// not diluted by fast-lane reads that bypass the rings anyway.
	batching := []string{KindNormalizedOpt, KindPStackOpt, "pmap-r0"}
	for _, bm := range []int64{1, 4, 16, 64, 256} {
		for _, base := range []string{KindQueueBatched, KindStackBatched, KindMapBatched} {
			kind := fmt.Sprintf("%s-b%d", base, bm)
			batching = append(batching, kind)
			run := func(cfg Config) Result {
				cfg.Params = cfg.Params.Set("batch-max", bm)
				var r Result
				switch base {
				case KindQueueBatched:
					r = runQueueBatched(cfg)
				case KindStackBatched:
					r = runStackBatched(cfg)
				default:
					cfg.Params = cfg.Params.Set("read-pct", 0)
					r = runMapBatched(base, cfg)
				}
				r.Kind = kind
				return r
			}
			family := "queue"
			switch base {
			case KindStackBatched:
				family = "stack"
			case KindMapBatched:
				family = "map"
			}
			workload.RegisterBencher(workload.Bencher{Kind: kind, Family: family, Run: run})
		}
	}
	// Read-mix points at b64 show the group commit composing with the
	// PR 5 read-only fast lane (producer Gets bypass the rings, so
	// deferred windows and volatile reads interleave).
	for _, rp := range []int64{50, 90} {
		rp := rp
		kind := fmt.Sprintf("%s-b64-r%d", KindMapBatched, rp)
		batching = append(batching, kind)
		workload.RegisterBencher(workload.Bencher{Kind: kind, Family: "map",
			Run: func(cfg Config) Result {
				cfg.Params = cfg.Params.Set("batch-max", 64).Set("read-pct", rp)
				r := runMapBatched(KindMapBatched, cfg)
				r.Kind = kind
				return r
			}})
	}
	workload.RegisterFigure("batching", batching...)
}

// batchGeom resolves the shared batched-kind geometry.
func batchGeom(cfg Config) (shards, batchMax int) {
	shards = int(cfg.Param("ingress-shards"))
	if shards < 1 {
		shards = 1
	}
	batchMax = int(cfg.Param("batch-max"))
	if batchMax < 1 {
		batchMax = 1
	}
	return shards, batchMax
}

// ringCapacity sizes a shard ring: enough runway that producers rarely
// stall on a draining combiner, bounded so memory stays flat.
func ringCapacity(batchMax int) int {
	c := 4 * batchMax
	if c < 256 {
		c = 256
	}
	return c
}

// packedGeom sizes one combiner's packed pool: its share of the
// producers' stream plus batch slack. The benchmarks never retire
// nodes, so the pool must hold the whole share.
func packedGeom(T int, perProducer uint64, shards, batchMax int) (segNodes, nseg uint32) {
	perCombiner := uint64(T)*perProducer/uint64(shards) + uint64(batchMax) + 1024
	segNodes = 4096
	nseg = uint32(perCombiner/uint64(segNodes)) + 2
	return
}

// chainApplier is a queue or stack batch applier over a packed pool.
type chainApplier = func(c *capsule.Ctx, vals []uint64)

// chainEnv is what runChainBatched hands a structure constructor.
type chainEnv struct {
	mem   *pmem.Memory
	space rcas.CasSpace
	arena *qnode.Arena
	P     int
	setup *pmem.Port
	seed  uint32 // initial contents
}

func runQueueBatched(cfg Config) Result {
	return runChainBatched(KindQueueBatched, ingress.OpEnqueue, seedNodes(cfg), cfg,
		func(e chainEnv) func(*qnode.PackedPool) chainApplier {
			q := pqueue.NewGeneral(pqueue.Config{
				Mem: e.mem, Space: e.space, Arena: e.arena, P: e.P, Durable: true, Opt: true,
			})
			q.Init(e.setup, pqueue.DummyNode+e.seed)
			if e.seed > 0 {
				q.Seed(e.setup, pqueue.DummyNode+1, e.seed, func(i uint32) uint64 { return uint64(i) })
			}
			return func(np *qnode.PackedPool) chainApplier { return pqueue.BatchEnqueuer(q, np) }
		})
}

func runStackBatched(cfg Config) Result {
	return runChainBatched(KindStackBatched, ingress.OpPush, uint32(cfg.Param("stack-seed")), cfg,
		func(e chainEnv) func(*qnode.PackedPool) chainApplier {
			s := pstack.New(pstack.Config{
				Mem: e.mem, Space: e.space, Arena: e.arena, P: e.P, Durable: true, Opt: true,
			})
			s.Init(e.setup, 1+e.seed)
			if e.seed > 0 {
				s.Seed(e.setup, 1, e.seed, func(i uint32) uint64 { return uint64(i) })
			}
			return func(np *qnode.PackedPool) chainApplier { return pstack.BatchPusher(s, np) }
		})
}

// runChainBatched is the one runner of the two chain-batched kinds,
// which differ only in the structure (build constructs and seeds it,
// then yields one applier per combiner pool) and the op code producers
// publish.
func runChainBatched(kind string, op uint8, seed uint32, cfg Config,
	build func(chainEnv) func(*qnode.PackedPool) chainApplier) Result {
	shards, batchMax := batchGeom(cfg)
	T := cfg.Threads
	P := T + shards
	perProducer := uint64(cfg.Pairs) * 2

	// Combiners allocate exclusively from per-combiner packed pools
	// (qnode.PackedNodesPerLine nodes per line); the base arena holds
	// only the dummy and the seeded contents. Sizing is exact per
	// combiner — no per-pid range split multiplying the footprint.
	segNodes, nseg := packedGeom(T, perProducer, shards, batchMax)
	arenaCap := seed + 8
	words := uint64(arenaCap+8)*pmem.WordsPerLine +
		uint64(shards)*qnode.PackedWords(segNodes, nseg) +
		uint64(P)*capsule.ProcWords + 1<<16
	mem := pmem.New(pmem.Config{
		Words:      words,
		Mode:       pmem.Shared,
		FlushDelay: cfg.FlushDelay,
		FenceDelay: cfg.FenceDelay,
	})
	rt := proc.NewRuntime(mem, P)
	arena := qnode.NewArena(mem, arenaCap)
	applier := build(chainEnv{mem: mem, space: rcas.NewSpace(mem, P), arena: arena, P: P, setup: mem.NewPort(), seed: seed})

	pool := ingress.NewPool(shards, ringCapacity(batchMax), batchMax, T)
	reg := capsule.NewRegistry()
	bases := capsule.AllocProcAreas(mem, P)
	for s := 0; s < shards; s++ {
		apply := applier(qnode.NewPackedPool(mem, arena, segNodes, nseg, P))
		comb := ingress.RegisterGroupCombiner(reg, fmt.Sprintf("combine-%d", s), pool, s,
			ingress.ChainApplier(batchMax, apply), nil)
		capsule.Install(rt.Proc(T+s).Mem(), bases[T+s], reg, comb)
	}

	start := time.Now()
	rt.RunToCompletion(func(i int) proc.Program {
		if i >= T {
			return func(p *proc.Proc) {
				capsule.NewMachine(p, reg, bases[i]).Run()
			}
		}
		return func(p *proc.Proc) {
			ring := pool.Shard(i % shards).Ring
			spin := func() { p.Step() }
			for k := uint64(0); k < perProducer; k++ {
				ring.Publish(ingress.Record{Op: op, Pid: int32(i), A: uint64(i)<<40 | k}, spin)
				p.Step()
			}
			pool.MarkDone(i)
		}
	})
	return collect(kind, cfg, rt, start)
}

func runMapBatched(kind string, cfg Config) Result {
	shards, batchMax := batchGeom(cfg)
	T := cfg.Threads
	P := T + shards
	keys := int(cfg.Param("map-keys"))
	if keys <= 0 {
		keys = 1024
	}
	buckets := 2 * keys
	readPct := int(cfg.Param("read-pct"))
	ops := cfg.Pairs * 2

	window := int(cfg.Param("batch-window"))

	words := pmap.BatchWords(buckets, 1, P, shards, 0, window) +
		uint64(P)*capsule.ProcWords + uint64(keys)*4 + 1<<16
	mem := pmem.New(pmem.Config{
		Words:      words,
		Mode:       pmem.Shared,
		FlushDelay: cfg.FlushDelay,
		FenceDelay: cfg.FenceDelay,
	})
	rt := proc.NewRuntime(mem, P)
	initial := make(map[uint64]uint64, keys)
	for k := 1; k <= keys; k++ {
		initial[uint64(k)] = uint64(k)
	}
	m := pmap.New(pmap.Config{
		Mem: mem, P: P, Buckets: buckets, Shards: 1, Opt: true, Durable: true,
		BatchCombiners: shards, BatchWindow: window,
	})
	setup := mem.NewPort()
	m.Init(setup, initial)
	m.Bind(rt)
	ba := pmap.NewBatchApplier(m)

	pool := ingress.NewPool(shards, ringCapacity(batchMax), batchMax, T)
	reg := capsule.NewRegistry()
	m.Register(reg)
	bases := capsule.AllocProcAreas(mem, P)
	combiners := make([]capsule.RoutineID, shards)
	for s := 0; s < shards; s++ {
		batchOps := make([]pmap.BatchOp, batchMax)
		combiners[s] = ingress.RegisterGroupCombiner(reg, fmt.Sprintf("combine-m%d", s), pool, s,
			func(c *capsule.Ctx, batch []ingress.Record) bool {
				for i := range batch {
					batchOps[i] = pmap.BatchOp{Del: batch[i].Op == ingress.OpDelete,
						K: batch[i].A, V: batch[i].B}
				}
				if !ba.Apply(c, batchOps[:len(batch)]) {
					panic("harness: map batch rejected; table is sized to never fill")
				}
				return ba.Deferred(c.P().ID())
			},
			func(c *capsule.Ctx) { ba.Close(c.P().ID()) })
	}
	for s := 0; s < shards; s++ {
		capsule.Install(rt.Proc(T+s).Mem(), bases[T+s], reg, combiners[s])
	}
	for i := 0; i < T; i++ {
		capsule.InstallIdle(rt.Proc(i).Mem(), bases[i], reg, m.Routine())
	}

	start := time.Now()
	rt.RunToCompletion(func(i int) proc.Program {
		if i >= T {
			return func(p *proc.Proc) {
				capsule.NewMachine(p, reg, bases[i]).Run()
			}
		}
		return func(p *proc.Proc) {
			// Reads ride the fast lane inline; writes go through the
			// rings, routed by key so each key has one combiner.
			mach := capsule.NewMachine(p, reg, bases[i])
			rng := rand.New(rand.NewSource(int64(i) + 1))
			spin := func() { p.Step() }
			for n := 0; n < ops; n++ {
				k := uint64(rng.Intn(keys) + 1)
				if rng.Intn(100) < readPct {
					mach.Invoke(m.Routine(), m.GetEntry(), k)
					continue
				}
				rec := ingress.Record{Pid: int32(i), A: k}
				if n%3 == 1 {
					rec.Op = ingress.OpDelete
				} else {
					rec.Op = ingress.OpPut
					rec.B = uint64(n)
				}
				pool.Shard(pmap.RouteKey(k, shards)).Ring.Publish(rec, spin)
				p.Step()
			}
			pool.MarkDone(i)
		}
	})
	return collect(kind, cfg, rt, start)
}

package harness

import (
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
)

// The batched kinds: cfg.Threads producer processes publish operation
// records into one ingress ring fire-and-forget (ring backpressure is
// the only wait), and one combiner process (pid cfg.Threads) drains
// batches of up to batch-max records, applying each batch inside one
// capsule span with one PersistEpoch. Ops counts the producers'
// operations (2*Pairs per producer, matching the unbatched kinds' op
// count); Stats sums every process including the combiner, so fences/op
// and flushes/op are directly comparable with the unbatched kinds.
//
// Reads are not routed through the ring: the pmap-batched kind issues
// its read-pct share of Gets inline on the producer via the read-only
// fast lane, exactly as the unbatched pmap kind does.

// Kinds of the batched ingress family front-ends.
const (
	KindQueueBatched = "pqueue-batched"
	KindStackBatched = "pstack-batched"
	KindMapBatched   = "pmap-batched"
)

// ringCapacity sizes the ring: enough runway that producers rarely
// stall on a draining combiner, bounded so memory stays flat.
func ringCapacity(batchMax int) int {
	c := 4 * batchMax
	if c < 256 {
		c = 256
	}
	return c
}

// packedGeom sizes the combiner's packed pool: the producers' whole
// stream plus batch slack. The benchmarks never retire nodes, so the
// pool must hold all of it.
func packedGeom(T int, perProducer uint64, batchMax int) (segNodes, nseg uint32) {
	perCombiner := uint64(T)*perProducer + uint64(batchMax) + 1024
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
	return runChainBatched(ingress.OpEnqueue, seedNodes(cfg), cfg,
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
	return runChainBatched(ingress.OpPush, uint32(cfg.Param("stack-seed")), cfg,
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
// then yields the applier over the combiner's packed pool) and the op
// code producers publish.
func runChainBatched(op uint8, seed uint32, cfg Config,
	build func(chainEnv) func(*qnode.PackedPool) chainApplier) Result {
	batchMax := int(cfg.Param("batch-max"))
	T := cfg.Threads
	P := T + 1
	perProducer := uint64(cfg.Pairs) * 2

	// The combiner allocates exclusively from its packed pool
	// (qnode.PackedNodesPerLine nodes per line); the base arena holds
	// only the dummy and the seeded contents.
	segNodes, nseg := packedGeom(T, perProducer, batchMax)
	arenaCap := seed + 8
	words := uint64(arenaCap+8)*pmem.WordsPerLine +
		qnode.PackedWords(segNodes, nseg) +
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

	pool := ingress.NewPool(1, ringCapacity(batchMax), batchMax, T)
	reg := capsule.NewRegistry()
	bases := capsule.AllocProcAreas(mem, P)
	apply := applier(qnode.NewPackedPool(mem, arena, segNodes, nseg, P))
	comb := ingress.RegisterGroupCombiner(reg, "combine-0", pool, 0,
		ingress.ChainApplier(batchMax, apply), nil)
	capsule.Install(rt.Proc(T).Mem(), bases[T], reg, comb)

	start := time.Now()
	rt.RunToCompletion(func(i int) proc.Program {
		if i >= T {
			return func(p *proc.Proc) {
				capsule.NewMachine(p, reg, bases[i]).Run()
			}
		}
		return func(p *proc.Proc) {
			ring := pool.Shard(0).Ring
			spin := func() { p.Step() }
			for k := uint64(0); k < perProducer; k++ {
				ring.Publish(ingress.Record{Op: op, Pid: int32(i), A: uint64(i)<<40 | k}, spin)
				p.Step()
			}
			pool.MarkDone(i)
		}
	})
	return collect(cfg, rt, start)
}

func runMapBatched(cfg Config) Result {
	batchMax := int(cfg.Param("batch-max"))
	T := cfg.Threads
	P := T + 1
	keys := int(cfg.Param("map-keys"))
	buckets := 2 * keys
	readPct := int(cfg.Param("read-pct"))
	ops := cfg.Pairs * 2
	// The group-commit window is pmap.DefaultBatchWindow: at 2048 swings
	// per close fence the batching figure measured pmap-batched-b64 at 4
	// threads at 0.508 eff-flush/op, against 2.016 before the tier
	// (BENCH_7.json, BENCH_7_before.json). No figure point varies it.
	window := pmap.DefaultBatchWindow

	words := pmap.BatchWords(buckets, 1, P, 1, 0, window) +
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
		BatchCombiners: 1, BatchWindow: window,
	})
	setup := mem.NewPort()
	m.Init(setup, initial)
	m.Bind(rt)
	apply, closeWindow := pmap.NewBatchApplier(m).GroupApply(batchMax)

	pool := ingress.NewPool(1, ringCapacity(batchMax), batchMax, T)
	reg := capsule.NewRegistry()
	m.Register(reg)
	bases := capsule.AllocProcAreas(mem, P)
	comb := ingress.RegisterGroupCombiner(reg, "combine-m0", pool, 0, apply, closeWindow)
	capsule.Install(rt.Proc(T).Mem(), bases[T], reg, comb)
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
			// ring to the one combiner.
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
				pool.Shard(0).Ring.Publish(rec, spin)
				p.Step()
			}
			pool.MarkDone(i)
		}
	})
	return collect(cfg, rt, start)
}

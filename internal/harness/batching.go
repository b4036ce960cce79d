package harness

import (
	"math/rand"

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

func runQueueBatched(cfg Config) Result {
	seed := seedNodes(cfg)
	return runChainBatched(cfg, ingress.OpEnqueue, seed,
		func(mem *pmem.Memory, arena *qnode.Arena, np *qnode.PackedPool) chainApplier {
			q := pqueue.NewGeneral(pqueue.Config{
				Mem: mem, Space: rcas.NewSpace(mem, cfg.Threads+1), Arena: arena, P: cfg.Threads + 1, Durable: true, Opt: true,
			})
			setup := mem.NewPort()
			q.Init(setup, pqueue.DummyNode+seed)
			if seed > 0 {
				q.Seed(setup, pqueue.DummyNode+1, seed, func(i uint32) uint64 { return uint64(i) })
			}
			return pqueue.BatchEnqueuer(q, np)
		})
}

func runStackBatched(cfg Config) Result {
	seed := uint32(cfg.Param("stack-seed"))
	return runChainBatched(cfg, ingress.OpPush, seed,
		func(mem *pmem.Memory, arena *qnode.Arena, np *qnode.PackedPool) chainApplier {
			s := pstack.New(pstack.Config{
				Mem: mem, Space: rcas.NewSpace(mem, cfg.Threads+1), Arena: arena, P: cfg.Threads + 1, Durable: true, Opt: true,
			})
			setup := mem.NewPort()
			s.Init(setup, 1+seed)
			if seed > 0 {
				s.Seed(setup, 1, seed, func(i uint32) uint64 { return uint64(i) })
			}
			return pstack.BatchPusher(s, np)
		})
}

// runChainBatched is the one runner of the two chain-batched kinds,
// which differ only in the structure (build constructs and seeds it
// with seed nodes, then yields its applier over the combiner's packed
// pool) and the op code producers publish.
func runChainBatched(cfg Config, op uint8, seed uint32,
	build func(mem *pmem.Memory, arena *qnode.Arena, np *qnode.PackedPool) chainApplier) Result {
	batchMax := int(cfg.Param("batch-max"))
	perProducer := uint64(cfg.Pairs) * 2
	// The combiner allocates exclusively from its packed pool
	// (qnode.PackedNodesPerLine nodes per line); the base arena holds
	// only the dummy and the seeded contents.
	segNodes, nseg := packedGeom(cfg.Threads, perProducer, batchMax)
	mem, rt := newMachine(cfg, cfg.Threads+1, uint64(seed+16)*pmem.WordsPerLine+qnode.PackedWords(segNodes, nseg))
	arena := qnode.NewArena(mem, seed+8)
	apply := build(mem, arena, qnode.NewPackedPool(mem, arena, segNodes, nseg, cfg.Threads+1))
	return runBatched(cfg, mem, rt, capsule.NewRegistry(), "combine-0", ingress.ChainApplier(batchMax, apply), nil,
		func(p *proc.Proc, publish func(ingress.Record)) {
			for k := uint64(0); k < perProducer; k++ {
				publish(ingress.Record{Op: op, A: uint64(p.ID())<<40 | k})
			}
		})
}

func runMapBatched(cfg Config) Result {
	T := cfg.Threads
	keys := int(cfg.Param("map-keys"))
	buckets := 2 * keys
	readPct := int(cfg.Param("read-pct"))
	// The group-commit window is pmap.DefaultBatchWindow: at 2048 swings
	// per close fence the batching figure measured pmap-batched-b64 at 4
	// threads at 0.508 eff-flush/op, against 2.016 before the tier
	// (BENCH_7.json, BENCH_7_before.json). No figure point varies it.
	window := pmap.DefaultBatchWindow
	mem, rt := newMachine(cfg, T+1, pmap.BatchWords(buckets, 1, T+1, 1, 0, window)+uint64(keys)*4)
	m := pmap.New(pmap.Config{
		Mem: mem, P: T + 1, Buckets: buckets, Shards: 1, Opt: true, Durable: true,
		BatchCombiners: 1, BatchWindow: window,
	})
	m.Init(mem.NewPort(), prefill(keys))
	m.Bind(rt)
	apply, closeWindow := pmap.NewBatchApplier(m).GroupApply(int(cfg.Param("batch-max")))
	reg := capsule.NewRegistry()
	m.Register(reg)
	bases := idle(mem, rt, T, reg, m.Routine())
	return runBatched(cfg, mem, rt, reg, "combine-m0", apply, closeWindow,
		func(p *proc.Proc, publish func(ingress.Record)) {
			// Reads ride the fast lane inline; writes go through the
			// ring to the one combiner.
			get := pmapOps(m, capsule.NewMachine(p, reg, bases[p.ID()])).get
			rng := rand.New(rand.NewSource(int64(p.ID()) + 1))
			for n := 0; n < cfg.Pairs*2; n++ {
				k := uint64(rng.Intn(keys) + 1)
				if rng.Intn(100) < readPct {
					get(k)
					continue
				}
				rec := ingress.Record{A: k}
				if n%3 == 1 {
					rec.Op = ingress.OpDelete
				} else {
					rec.Op = ingress.OpPut
					rec.B = uint64(n)
				}
				publish(rec)
			}
		})
}

// runBatched is the timed run of every batched kind: the cfg.Threads
// producers each run produce, whose publish puts a record on the one
// ring (stepping while the ring is full, and once after each record)
// before the producer is marked done; process cfg.Threads runs the
// combiner, registered in reg under name over apply and closeWindow.
func runBatched(cfg Config, mem *pmem.Memory, rt *proc.Runtime, reg *capsule.Registry, name string,
	apply ingress.GroupApply, closeWindow func(*capsule.Ctx), produce func(p *proc.Proc, publish func(ingress.Record))) Result {
	T := cfg.Threads
	batchMax := int(cfg.Param("batch-max"))
	pool := ingress.NewPool(1, ringCapacity(batchMax), batchMax, T)
	comb := ingress.RegisterGroupCombiner(reg, name, pool, 0, apply, closeWindow)
	base := capsule.AllocProcAreas(mem, 1)[0]
	capsule.Install(rt.Proc(T).Mem(), base, reg, comb)
	return timed(cfg, rt, func(i int) proc.Program {
		if i == T {
			return func(p *proc.Proc) { capsule.NewMachine(p, reg, base).Run() }
		}
		return func(p *proc.Proc) {
			ring := pool.Shard(0).Ring
			spin := func() { p.Step() }
			produce(p, func(rec ingress.Record) {
				rec.Pid = int32(i)
				ring.Publish(rec, spin)
				p.Step()
			})
			pool.MarkDone(i)
		}
	})
}

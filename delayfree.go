// Package delayfree is a Go reproduction of "Delay-Free Concurrency on
// Faulty Persistent Memory" (Ben-David, Blelloch, Friedman, Wei —
// SPAA 2019): persistent simulations that take concurrent programs
// using Reads, Writes and CASs and make them recoverable from crashes
// with constant computation delay and constant recovery delay.
//
// Because Go's runtime offers no control over cache-line flushing, the
// Parallel Persistent Memory model is simulated in software (see
// DESIGN.md): word-addressable persistent memory with an explicit
// cache-line/flush/fence model and crash injection that genuinely
// destroys volatile state.
//
// The package re-exports the building blocks:
//
//   - Memory / Port / Runtime / Proc — the simulated PPM substrate;
//   - Registry / Machine / Ctx — the capsule mechanism (Section 2.3):
//     write routines as arrays of capsules, get crash recovery for free;
//   - CasSpace / NewRCas / NewAttiyaRCas — recoverable CAS (Section 4);
//   - NewGeneralQueue / NewNormalizedQueue — the paper's transformations
//     applied to the Michael–Scott queue (Sections 6–7);
//   - NewPersistentStack — the Section 7 transformation applied to the
//     Treiber stack, evidence of Theorem 7.1's generality;
//   - NewWritableCasArray — writable CAS objects (Section 8);
//   - NewRecoverableMap — a crash-recoverable open-addressing hash map
//     composing the writable-CAS array with capsule routines, with
//     full-system crash recovery and a volatile baseline;
//   - NewIngressPool / RegisterBatchCombiner / RegisterBatchProducer /
//     BatchEnqueuer / BatchPusher / BatchMapApplier — the sharded
//     batching ingress: MPSC rings and combiner routines that amortize
//     one capsule span and one persist epoch across whole batches;
//   - RunBenchmark / SweepBenchmark — the Section 10 evaluation harness;
//   - BenchKinds / BenchFigures / CrashStressers / RunCrashStress — the
//     workload registry: every family (queue, map, stack) registers its
//     benchmark kinds, figures, tunables and crash-stress drivers, and
//     consumers iterate what is registered (see internal/workload).
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// reproduction of the paper's figures.
package delayfree

import (
	"io"

	"delayfree/internal/capsule"
	"delayfree/internal/harness"
	"delayfree/internal/ingress"
	"delayfree/internal/logqueue"
	"delayfree/internal/msq"
	"delayfree/internal/pmap"
	"delayfree/internal/pmem"
	"delayfree/internal/pqueue"
	"delayfree/internal/proc"
	"delayfree/internal/pstack"
	"delayfree/internal/qnode"
	"delayfree/internal/rcas"
	"delayfree/internal/romulus"
	"delayfree/internal/wcas"
	"delayfree/internal/workload"
)

// Simulated persistent memory (the PPM substrate).
type (
	// Memory is the simulated persistent memory; see pmem.Memory.
	Memory = pmem.Memory
	// MemConfig configures a Memory.
	MemConfig = pmem.Config
	// Port is a process-private access handle with statistics and the
	// crash-injection hook.
	Port = pmem.Port
	// Addr is a word address in persistent memory.
	Addr = pmem.Addr
	// Stats counts memory operations, flushes and fences.
	Stats = pmem.Stats
	// Mode selects the private (PPM) or shared-cache memory model.
	Mode = pmem.Mode
)

// Memory model constants.
const (
	// PrivateModel is the PPM model: persistent-memory writes are
	// immediately durable.
	PrivateModel = pmem.Private
	// SharedModel is the shared-cache model: durability requires
	// flushes and fences.
	SharedModel = pmem.Shared
)

// NewMemory creates a simulated persistent memory.
func NewMemory(cfg MemConfig) *Memory { return pmem.New(cfg) }

// Processes and crash injection.
type (
	// Runtime manages P crashable processes over one Memory.
	Runtime = proc.Runtime
	// Proc is one simulated process.
	Proc = proc.Proc
	// Program is the code a process runs; it is re-entered after every
	// crash.
	Program = proc.Program
)

// NewRuntime creates a runtime with P processes.
func NewRuntime(mem *Memory, P int) *Runtime { return proc.NewRuntime(mem, P) }

// Capsules (Section 2.3).
type (
	// Registry holds encapsulated routines.
	Registry = capsule.Registry
	// Machine executes encapsulated routines for one process.
	Machine = capsule.Machine
	// Ctx is the per-capsule execution context.
	Ctx = capsule.Ctx
	// RoutineID identifies a registered routine.
	RoutineID = capsule.RoutineID
	// CapsuleFn is one capsule body.
	CapsuleFn = capsule.Capsule
)

// NewRegistry creates an empty routine registry.
func NewRegistry() *Registry { return capsule.NewRegistry() }

// NewMachine creates a capsule machine for p over the area at base.
func NewMachine(p *Proc, reg *Registry, base Addr) *Machine {
	return capsule.NewMachine(p, reg, base)
}

// AllocCapsuleAreas reserves per-process capsule areas.
func AllocCapsuleAreas(mem *Memory, P int) []Addr { return capsule.AllocProcAreas(mem, P) }

// InstallRoutine initializes a process's capsule area to start routine
// rid with args.
func InstallRoutine(port *Port, base Addr, reg *Registry, rid RoutineID, args ...uint64) {
	capsule.Install(port, base, reg, rid, args...)
}

// Recoverable CAS (Section 4).
type (
	// CasSpace is the recoverable-CAS interface; see rcas.CasSpace.
	CasSpace = rcas.CasSpace
)

// NewRCas creates the paper's Algorithm 1 recoverable CAS space
// (O(1) recovery, O(P) space).
func NewRCas(mem *Memory, P int) CasSpace { return rcas.NewSpace(mem, P) }

// NewAttiyaRCas creates the Attiya–Ben Baruch–Hendler recoverable CAS
// (O(P) recovery, O(P²) space; plain-write notifications).
func NewAttiyaRCas(mem *Memory, P int) CasSpace { return rcas.NewAttiya(mem, P) }

// PackTriple packs a recoverable-CAS ⟨value, pid, seq⟩ triple.
func PackTriple(val uint64, pid int, seq uint64) uint64 { return rcas.Pack(val, pid, seq) }

// TripleVal extracts the value of a packed triple.
func TripleVal(x uint64) uint64 { return rcas.Val(x) }

// Transformed queues (Sections 6, 7 and 10).
type (
	// PersistentQueue is the common interface of the transformed queues.
	PersistentQueue = pqueue.Queue
	// QueueConfig assembles a transformed queue's dependencies.
	QueueConfig = pqueue.Config
	// NodeArena is the cache-line node pool shared by the queues.
	NodeArena = qnode.Arena
	// PackedNodePool is a single-writer packed-line batch allocator
	// attached to a NodeArena (one pool per batch combiner).
	PackedNodePool = qnode.PackedPool
	// MSQueue is the original (volatile) Michael–Scott queue.
	MSQueue = msq.Queue
	// LogQueue is the Friedman et al. durable detectable queue.
	LogQueue = logqueue.Queue
	// RomulusTM is the Romulus-style persistent transactional memory.
	RomulusTM = romulus.TM
	// RomulusQueue is a FIFO queue inside a RomulusTM.
	RomulusQueue = romulus.Queue
)

// NewNodeArena reserves a node arena.
func NewNodeArena(mem *Memory, capacity uint32) *NodeArena { return qnode.NewArena(mem, capacity) }

// NewPackedNodePool reserves a packed extent of nseg segments of
// segNodes line-packed nodes each and attaches it to the arena. The
// pool is single-writer: exactly one batch combiner may allocate from
// it. Budget PackedPoolWords(segNodes, nseg) memory words for it.
func NewPackedNodePool(mem *Memory, arena *NodeArena, segNodes, nseg uint32, nprocs int) *PackedNodePool {
	return qnode.NewPackedPool(mem, arena, segNodes, nseg, nprocs)
}

// PackedPoolWords is the number of memory words NewPackedNodePool
// with the same geometry will reserve.
func PackedPoolWords(segNodes, nseg uint32) uint64 { return qnode.PackedWords(segNodes, nseg) }

// NewGeneralQueue builds the Low-Computation-Delay Simulator queue
// (Section 6); set cfg.Opt for the compact-frame General-Opt variant.
func NewGeneralQueue(cfg QueueConfig) PersistentQueue { return pqueue.NewGeneral(cfg) }

// NewNormalizedQueue builds the Persistent Normalized Simulator queue
// (Section 7); set cfg.Opt for Normalized-Opt.
func NewNormalizedQueue(cfg QueueConfig) PersistentQueue { return pqueue.NewNormalized(cfg) }

// NewMSQueue builds the volatile Michael–Scott baseline.
func NewMSQueue(mem *Memory, port *Port, arena *NodeArena, dummy uint32) *MSQueue {
	return msq.New(mem, port, arena, dummy)
}

// NewLogQueue builds the Friedman et al. comparator.
func NewLogQueue(mem *Memory, port *Port, arena *NodeArena, P int, dummy uint32) *LogQueue {
	return logqueue.New(mem, port, arena, P, dummy)
}

// NewRomulusTM builds a Romulus-style persistent TM with size logical
// words.
func NewRomulusTM(mem *Memory, port *Port, size uint64, P int) *RomulusTM {
	return romulus.New(mem, port, size, P)
}

// Writable CAS objects (Section 8).
type (
	// WritableCasArray is M writable CAS objects over ordinary CAS.
	WritableCasArray = wcas.Array
)

// NewWritableCasArray builds M writable CAS objects for P processes.
func NewWritableCasArray(mem *Memory, port *Port, M, P int, init func(j int) uint64) *WritableCasArray {
	return wcas.New(mem, port, M, P, init)
}

// Persistent Treiber stack (the Section 7 transformation applied to a
// second normalized data structure; a first-class workload family with
// benchmark kinds, a figure and a crash-stress driver).
type (
	// PersistentStack is the transformed Treiber stack; see pstack.Stack.
	PersistentStack = pstack.Stack
	// StackConfig assembles the stack's dependencies.
	StackConfig = pstack.Config
	// VolatileStack is the unprotected Treiber baseline.
	VolatileStack = pstack.Volatile
)

// NewPersistentStack builds the transformed Treiber stack; call its
// Register and Init before use.
func NewPersistentStack(cfg StackConfig) *PersistentStack { return pstack.New(cfg) }

// NewVolatileStack builds the unprotected Treiber baseline.
func NewVolatileStack(mem *Memory, port *Port, arena *NodeArena) *VolatileStack {
	return pstack.NewVolatile(mem, port, arena)
}

// Recoverable hash map (internal/pmap): buckets in a writable-CAS
// array, operations as capsule routines, sharded segments, full-system
// crash recovery.
type (
	// RecoverableMap is the crash-recoverable hash map; see pmap.Map.
	RecoverableMap = pmap.Map
	// RecoverableMapConfig configures a RecoverableMap.
	RecoverableMapConfig = pmap.Config
	// VolatileMap is the unprotected open-addressing baseline.
	VolatileMap = pmap.Volatile
	// MapOp is one scripted map operation (see pmap.Script).
	MapOp = pmap.Op
)

// NewRecoverableMap computes a recoverable map's geometry; call its
// Init, Register and Bind before use.
func NewRecoverableMap(cfg RecoverableMapConfig) *RecoverableMap { return pmap.New(cfg) }

// NewVolatileMap builds the unprotected baseline map.
func NewVolatileMap(mem *Memory, buckets int) *VolatileMap { return pmap.NewVolatile(mem, buckets) }

// Workload registry and evaluation harness (Section 10). Families
// self-register benchmark kinds, figures, tunables and crash-stress
// drivers; everything below iterates the registry, so a new family is
// one registration file away from benchfigs tables, crashstress rounds
// and these APIs.
type (
	// BenchConfig parametrizes a benchmark run: common knobs plus the
	// per-family parameter bag (see BenchParamDefs).
	BenchConfig = workload.Config
	// BenchParams is the per-family parameter bag ("seed-nodes",
	// "read-pct", "stack-seed", ...; booleans are 0/1).
	BenchParams = workload.Params
	// BenchParam describes one registered tunable.
	BenchParam = workload.Param
	// BenchResult is one measured point.
	BenchResult = workload.Result
	// Bencher is one registered benchmark kind.
	Bencher = workload.Bencher
	// StressConfig parametrizes one crash-stress round; zero fields
	// select family defaults.
	StressConfig = workload.StressConfig
	// StressReport summarizes one crash-stress round.
	StressReport = workload.StressReport
	// Stresser is one registered crash-stress driver.
	Stresser = workload.Stresser
)

// BenchKinds lists every registered kind, across all families.
func BenchKinds() []string { return workload.Kinds() }

// BenchFigures maps figure names to the kinds they compare.
func BenchFigures() map[string][]string { return workload.Figures() }

// BenchParamDefs lists every registered per-family tunable.
func BenchParamDefs() []BenchParam { return workload.ParamDefs() }

// DefaultBenchConfig mirrors the paper's setup scaled to the simulator;
// family tunables resolve to their registered defaults.
func DefaultBenchConfig() BenchConfig { return harness.DefaultConfig() }

// RunBenchmark measures one registered kind.
func RunBenchmark(kind string, cfg BenchConfig) (BenchResult, error) { return workload.Run(kind, cfg) }

// SweepBenchmark measures kinds across thread counts.
func SweepBenchmark(kinds []string, threads []int, cfg BenchConfig) ([]BenchResult, error) {
	return workload.Sweep(kinds, threads, cfg)
}

// PrintBenchTable renders results as a paper-figure table.
func PrintBenchTable(w io.Writer, title string, results []BenchResult) {
	workload.PrintTable(w, title, results)
}

// RegisterBenchmark adds a benchmark kind to the registry (the
// extension point future workload families use).
func RegisterBenchmark(b Bencher) { workload.RegisterBencher(b) }

// RegisterCrashStresser adds a crash-stress driver to the registry.
func RegisterCrashStresser(s Stresser) { workload.RegisterStresser(s) }

// CrashStressers lists every registered crash-stress driver.
func CrashStressers() []Stresser { return workload.Stressers() }

// RunCrashStress runs one round of the named crash-stress driver
// ("general", "normalized-opt", "pmap", "pstack", ...): scripted
// operations under randomized crash injection with a shadow-model
// exactness check. A non-nil error means an operation was lost,
// duplicated or corrupted.
func RunCrashStress(name string, cfg StressConfig) (StressReport, error) {
	return workload.RunStress(name, cfg)
}

// Sharded batching ingress (internal/ingress): bounded MPSC rings feed
// per-shard combiner routines that drain whole batches and apply them
// inside a single capsule span closed by a single persist epoch,
// amortizing boundary and fence costs by 1/batch. Producers that run as
// simulated processes use the producer driver, whose abandon protocol
// keeps every operation exactly-once-or-never across crashes: a
// returned operation is durable, an abandoned one is never retried.
// See DESIGN.md ("Sharded batching ingress") and examples/ingress.
type (
	// IngressRecord is one batched operation request.
	IngressRecord = ingress.Record
	// IngressRing is the bounded MPSC ring (volatile by design).
	IngressRing = ingress.Ring
	// IngressShard is one ring plus its combiner's restart epoch.
	IngressShard = ingress.Shard
	// IngressPool is a sharded set of rings with producer accounting.
	IngressPool = ingress.Pool
	// IngressAttempt describes one producer-driver attempt.
	IngressAttempt = ingress.Attempt
	// MapBatchOp is one operation in a recoverable-map batch.
	MapBatchOp = pmap.BatchOp
)

// IngressRecord operation codes.
const (
	IngressOpEnqueue = ingress.OpEnqueue
	IngressOpPush    = ingress.OpPush
	IngressOpPut     = ingress.OpPut
	IngressOpDelete  = ingress.OpDelete
)

// Producer-driver capsule locals (read them back with Machine.LoadState
// to account for every job after a run): attempts started, operations
// acknowledged as durable, operations abandoned to a crash.
const (
	IngressSlotAttempts  = ingress.SlotIdx
	IngressSlotReturned  = ingress.SlotRet
	IngressSlotAbandoned = ingress.SlotAband
)

// NewIngressPool builds shards MPSC rings of the given capacity;
// combiners drain at most batchMax records per batch and producers
// pids are 0..producers-1.
func NewIngressPool(shards, capacity, batchMax, producers int) *IngressPool {
	return ingress.NewPool(shards, capacity, batchMax, producers)
}

// RegisterBatchCombiner registers shard's combiner routine: drain a
// batch, run apply inside one capsule span, publish completion tokens,
// finish when every producer is done and the ring is empty.
func RegisterBatchCombiner(reg *Registry, name string, pool *IngressPool, shard int,
	apply func(c *Ctx, batch []IngressRecord)) RoutineID {
	return ingress.RegisterCombiner(reg, name, pool, shard, apply)
}

// RegisterGroupBatchCombiner is RegisterBatchCombiner's group-commit
// variant for appliers whose durability is deferred past the batch
// span (apply returns true when the batch joined an open deferral
// window). Completion tokens for deferred batches are held and only
// published after a close — closeWin must make every held batch
// durable (e.g. MapBatchApplier's Close, one de-duplicated flush pass
// + fence over the window's swung Ptr words). The combiner calls it in
// the span that applied a batch unless a full next batch is already
// waiting in the ring, so an operation waits for the window only while
// there is load to share the close with.
func RegisterGroupBatchCombiner(reg *Registry, name string, pool *IngressPool, shard int,
	apply func(c *Ctx, batch []IngressRecord) (deferred bool), closeWin func(c *Ctx)) RoutineID {
	return ingress.RegisterGroupCombiner(reg, name, pool, shard, apply, closeWin)
}

// RegisterBatchProducer registers a producer routine that publishes
// mk(attempt) for attempts attempts through the pool's rings under the
// abandon protocol (exactly-once-or-never per operation across
// crashes). Attempt counters persist once per window of `window`
// attempts (0 or 1 = one boundary per attempt); a crash abandons the
// whole unacknowledged window.
func RegisterBatchProducer(reg *Registry, name string, pool *IngressPool, pid int,
	attempts, window uint64, mk func(attempt uint64) IngressAttempt) RoutineID {
	return ingress.RegisterProducerDriver(reg, name, pool, pid, attempts, window, nil, mk, nil)
}

// BatchEnqueuer returns a combiner applier that enqueues a whole batch
// as one privately-built chain committed by a single link CAS and made
// durable by a single persist epoch (all-or-nothing under crashes).
// Nodes come line-packed from npool, which must be private to this
// combiner.
func BatchEnqueuer(q PersistentQueue, npool *PackedNodePool) func(c *Ctx, vals []uint64) {
	return pqueue.BatchEnqueuer(q, npool)
}

// BatchPusher is the stack equivalent of BatchEnqueuer: one chain, one
// top CAS, one persist epoch, nodes line-packed from npool.
func BatchPusher(s *PersistentStack, npool *PackedNodePool) func(c *Ctx, vals []uint64) {
	return pstack.BatchPusher(s, npool)
}

// MapBatchApplier is the group-commit batch applier for the map family:
// line-packed value installs behind one install fence, deferred Ptr
// persistence closed by one fence per window. See pmap.BatchApplier.
type MapBatchApplier = pmap.BatchApplier

// BatchMapApplier returns the group-commit applier for recoverable-map
// batches: each operation individually atomic; durability deferred to
// the window's close fence (Close), which the ingress group combiner
// coordinates with producer acknowledgements. The map must be built
// with Config.BatchCombiners > 0.
func BatchMapApplier(m *RecoverableMap) *MapBatchApplier {
	return pmap.NewBatchApplier(m)
}

// RouteIngressKey maps a map key to its ingress shard (all operations
// on one key must meet the same combiner).
func RouteIngressKey(k uint64, nshards int) int { return pmap.RouteKey(k, nshards) }

// QueueDummyNode is the arena index to pass to a transformed queue's
// Init as its initial dummy node.
const QueueDummyNode = pqueue.DummyNode

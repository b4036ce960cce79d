// Package pmap is a crash-recoverable, fixed-capacity open-addressing
// hash map over the simulated PPM substrate — the repository's second
// workload family beside the queues, composing two pieces of the
// paper's machinery:
//
//   - every bucket is a ⟨key, value⟩ pair of adjacent objects in a
//     writable-CAS array (Section 8): keys are claimed with CAS, values
//     receive *blind writes*, and it is exactly the Write/CAS race on
//     the value objects that makes the wcas construction necessary
//     (Section 4's motivating anomaly);
//   - Get/Put/Delete/Cas are written as capsule arrays (Section 2.3),
//     so per-process crash recovery falls out of the existing restart
//     machinery: a crashed process repeats at most its interrupted
//     capsule.
//
// Crash-safety rests on three structural properties rather than on
// recoverable CAS:
//
//  1. Key cells are monotone: EMPTY (0) → k, never changing again
//     (Delete writes a tombstone value, it does not release the
//     bucket). A repeated claim capsule either finds its CAS landed
//     (the probe now finds k) or retries harmlessly — the ABA hazard
//     that recoverable CAS exists to solve cannot arise.
//  2. Value updates are blind writes of values determined by persisted
//     capsule locals, so repeating one is idempotent.
//  3. The bucket a probe capsule resolves is persisted at its boundary
//     and stays valid forever (property 1), so the following write
//     capsule can repeat against the same bucket.
//
// Cas (conditional value update) is linearizable and exercises the CAS
// half of the writable-CAS objects, but its *completion flag* is not
// crash-detectable: a capsule repetition after a successful Cas reports
// failure. Making it detectable would need the recoverable-CAS triple
// packing of Section 4, which costs value bits; see DESIGN.md.
//
// The map is sharded: buckets are striped across independent segments
// (each its own wcas.Array, chosen by high hash bits), so slot
// recycling, announcements and recovery scans are per-segment and the
// structure scales under high thread counts.
//
// Recovery model: individual capsule repetition is free (above), but
// the wcas slot pools are process-volatile, so pool reconstruction
// requires the quiescence of a *full-system* crash ("all processors
// fail together", Section 2.1) — call Recover before any process
// resumes. Keys must be nonzero; values must be below 2^64−1 (an
// internal +1 encoding reserves 0 for "absent").
package pmap

import (
	"fmt"
	"maps"
	"slices"

	"delayfree/internal/capsule"
	"delayfree/internal/pmem"
	"delayfree/internal/proc"
	"delayfree/internal/wcas"
)

// Config assembles a Map.
type Config struct {
	Mem *pmem.Memory
	// P is the number of processes.
	P int
	// Buckets is the total capacity; it is rounded up so each shard
	// holds a power-of-two bucket count.
	Buckets int
	// Shards is the number of independent segments (rounded up to a
	// power of two; 0 means 1).
	Shards int
	// Opt selects compact one-cache-line capsule frames.
	Opt bool
	// Durable enables the manual-flush protocol needed for recovery
	// from full-system crashes in the shared-cache model.
	Durable bool

	// BatchCombiners sizes the wcas group-commit tier: the number of
	// ingress combiners that will drive a BatchApplier. 0 disables the
	// tier (no extent is allocated; NewBatchApplier panics). Each
	// segment reserves BatchCombiners claims of extent lines, because
	// combiners are not bound to segments: segment selection (locate)
	// hashes the key, so any combiner may write any segment.
	BatchCombiners int
	// BatchWindow caps the swings a combiner defers before its window
	// auto-closes (flush+fence of the swung Ptr words). 0 picks
	// DefaultBatchWindow.
	BatchWindow int
}

// DefaultBatchWindow is the deferral window (swings per close fence)
// when Config.BatchWindow is zero. The close fence's cost is one flush
// per *distinct* Ptr line touched in the window (duplicates coalesce
// within the close epoch), so the window must comfortably exceed the
// hot set's Ptr-line count for the deferred flushes to amortize; 2048
// covers a few thousand live keys.
const DefaultBatchWindow = 2048

// segment is one stripe of buckets backed by its own writable-CAS
// array: object 2b is bucket b's key, object 2b+1 its value (adjacent,
// so a fresh bucket pair shares a cache line).
type segment struct {
	arr     *wcas.Array
	buckets uint32
	mask    uint32
}

func keyObj(b uint32) int { return int(2 * b) }
func valObj(b uint32) int { return int(2*b + 1) }

// Map is the recoverable hash map. Build with New, then Init, Register
// and Bind before concurrent use.
type Map struct {
	cfg    Config
	shards int
	bps    uint32 // buckets per segment
	segs   []*segment
	ports  []*pmem.Port
	hs     [][]*wcas.Handle // [pid][segment]
	ops    capsule.RoutineID

	// Group-commit tier geometry (Config.BatchCombiners > 0).
	batchLines  int // extent lines per combiner claim, per segment
	batchWindow int
	// recEpoch counts full-system recoveries; BatchApplier states carry
	// the epoch they were built under and rebuild when stale. Guarded
	// by the quiescence Recover already requires.
	recEpoch uint64
}

// Capsule program counters of the ops routine.
const (
	pcGet      = 0
	pcPutProbe = 1
	pcPutWrite = 2
	pcDelProbe = 3
	pcDelWrite = 4
	pcCasProbe = 5
	pcCasExec  = 6
)

// Capsule slots (compact-frame compatible: all < 7).
const (
	sKey = 1 // key argument
	sVal = 2 // put: value / cas: expected value
	sNew = 3 // cas: new value
	sLoc = 4 // resolved ⟨segment, bucket⟩
)

func nextPow2(n uint32) uint32 {
	p := uint32(1)
	for p < n {
		p <<= 1
	}
	return p
}

// mix is the splitmix64 finalizer; low bits pick the bucket, high bits
// the shard, so the two choices are independent.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// New computes the map geometry. Call Init before use.
func New(cfg Config) *Map {
	if cfg.Buckets < 1 {
		panic("pmap: need at least one bucket")
	}
	if cfg.P < 1 {
		panic("pmap: need at least one process")
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	shards = int(nextPow2(uint32(shards)))
	bps := nextPow2(uint32((cfg.Buckets + shards - 1) / shards))
	m := &Map{cfg: cfg, shards: shards, bps: bps}
	if cfg.BatchCombiners > 0 {
		m.batchWindow = cfg.BatchWindow
		if m.batchWindow == 0 {
			m.batchWindow = DefaultBatchWindow
		}
		m.batchLines = batchExtentLines(int(bps), m.batchWindow)
	}
	return m
}

// batchExtentLines sizes one combiner's per-segment extent claim. The
// steady-state occupancy is the live value working set (one slot per
// occupied bucket) plus a deferral window of quarantined retirees plus
// an in-flight batch — but the lap allocator reclaims only wholly-dead
// lines, so the extent behaves like a log-structured arena: near full
// occupancy the chance that all 8 co-resident slots of a line have
// retired collapses, and the allocator degenerates to scattered pool
// borrows (one install flush per op — exactly the cost this tier
// exists to avoid). Provision ~3x the steady-state occupancy so
// whole-line death keeps pace with allocation.
func batchExtentLines(bps, window int) int {
	return (3*(bps+window)+2*64)/pmem.WordsPerLine + 4
}

// Buckets returns the total (rounded) capacity.
func (m *Map) Buckets() int { return m.shards * int(m.bps) }

// Shards returns the (rounded) shard count.
func (m *Map) Shards() int { return m.shards }

// Words estimates the persistent-memory footprint in words, for sizing
// a pmem.Config before construction.
func Words(buckets, shards, P int) uint64 {
	return BatchWords(buckets, shards, P, 0, 0, 0)
}

// BatchWords is Words for a map built with the group-commit tier:
// combiners/window mirror Config.BatchCombiners/BatchWindow, and
// extentLines overrides the extent claim New sizes (zeros pick the same
// defaults as New).
func BatchWords(buckets, shards, P, combiners, extentLines, window int) uint64 {
	if shards < 1 {
		shards = 1
	}
	shards = int(nextPow2(uint32(shards)))
	bps := uint64(nextPow2(uint32((buckets + shards - 1) / shards)))
	objs := 2 * bps
	slots := objs + uint64(2*P*P)
	if combiners > 0 {
		if window == 0 {
			window = DefaultBatchWindow
		}
		if extentLines == 0 {
			extentLines = batchExtentLines(int(bps), window)
		}
		// Extent alignment (slots rounds up to a line) + the lines
		// themselves, counted in both the slot array and its statuses.
		slots = (slots + pmem.WordsPerLine - 1) &^ (pmem.WordsPerLine - 1)
		slots += uint64(combiners*extentLines) * pmem.WordsPerLine
	}
	perSeg := 2*slots + objs + uint64(P+2)*pmem.WordsPerLine + 4*pmem.WordsPerLine
	return uint64(shards)*perSeg + 1<<12
}

// Init creates the segments, pre-loading the contents of initial (may
// be nil). Keys are placed in ascending order, so the linear-probe
// layout, and every later probe's cost, is the same on every run. Must
// run quiescently before Register/Bind.
func (m *Map) Init(port *pmem.Port, initial map[uint64]uint64) {
	type kv struct{ k, v uint64 }
	assign := make([]map[uint32]kv, m.shards)
	for i := range assign {
		assign[i] = map[uint32]kv{}
	}
	for _, k := range slices.Sorted(maps.Keys(initial)) {
		v := initial[k]
		checkKV(k, v)
		si, start := m.locate(k)
		placed := false
		for i := uint32(0); i < m.bps; i++ {
			b := (start + i) & (m.bps - 1)
			if _, used := assign[si][b]; !used {
				assign[si][b] = kv{k, v}
				placed = true
				break
			}
		}
		if !placed {
			panic(fmt.Sprintf("pmap: initial contents overflow shard %d (%d buckets)", si, m.bps))
		}
	}
	m.segs = make([]*segment, m.shards)
	for si := range m.segs {
		sg := &segment{buckets: m.bps, mask: m.bps - 1}
		a := assign[si]
		sg.arr = wcas.NewWithExtent(m.cfg.Mem, port, int(2*m.bps), m.cfg.P,
			m.cfg.BatchCombiners*m.batchLines, func(j int) uint64 {
				e, ok := a[uint32(j/2)]
				if !ok {
					return 0
				}
				if j%2 == 0 {
					return e.k
				}
				return e.v + 1
			})
		sg.arr.SetDurable(m.cfg.Durable)
		m.segs[si] = sg
	}
}

// Register registers the ops routine; Routine and the *Entry methods
// identify the capsule entry points.
func (m *Map) Register(reg *capsule.Registry) {
	m.ops = reg.Register("pmap-ops", m.cfg.Opt,
		m.getCap, m.putProbe, m.putWrite, m.delProbe, m.delWrite, m.casProbe, m.casExec)
}

// Routine returns the registered ops routine.
func (m *Map) Routine() capsule.RoutineID { return m.ops }

// GetEntry is the Get entry: args (key), results (ok, value).
func (m *Map) GetEntry() int { return pcGet }

// PutEntry is the Put entry: args (key, value), result (ok); ok is 0
// only when the table is full.
func (m *Map) PutEntry() int { return pcPutProbe }

// DelEntry is the Delete entry: args (key), result (had a bucket).
func (m *Map) DelEntry() int { return pcDelProbe }

// CasEntry is the Cas entry: args (key, expected, new), result (ok).
func (m *Map) CasEntry() int { return pcCasProbe }

// Bind creates every process's segment handles. Must run quiescently
// after Init, before the processes start.
func (m *Map) Bind(rt *proc.Runtime) {
	m.ports = make([]*pmem.Port, m.cfg.P)
	m.hs = make([][]*wcas.Handle, m.cfg.P)
	for pid := 0; pid < m.cfg.P; pid++ {
		m.ports[pid] = rt.Proc(pid).Mem()
		m.hs[pid] = make([]*wcas.Handle, m.shards)
		for si, sg := range m.segs {
			m.hs[pid][si] = sg.arr.NewHandle(m.ports[pid], pid)
		}
	}
}

// Recover rebuilds the writable-CAS slot pools and every process's
// handles after a full-system crash. It must run exactly once per
// crash, before any process resumes map operations, using the calling
// process's port. An injected crash during Recover is safe: the next
// restart simply runs it again.
func (m *Map) Recover(port *pmem.Port) {
	for si, sg := range m.segs {
		pools := sg.arr.Recover(port)
		for pid := 0; pid < m.cfg.P; pid++ {
			m.hs[pid][si] = sg.arr.NewHandleWithPool(m.ports[pid], pid, pools[pid])
		}
	}
	// Invalidate every BatchApplier state: extent claims were reset and
	// the old batchers' deferred windows died with the crash.
	m.recEpoch++
}

func checkKV(k, v uint64) {
	if k == 0 {
		panic("pmap: keys must be nonzero")
	}
	if v == ^uint64(0) {
		panic("pmap: value 2^64-1 is reserved")
	}
}

func (m *Map) locate(k uint64) (int, uint32) {
	h := mix(k)
	return int((h >> 32) & uint64(m.shards-1)), uint32(h) & (m.bps - 1)
}

// find probes segment si for key k from its home bucket. With claim
// set it claims the first empty bucket for k. Safe to repeat after a
// crash: keys are monotone, so a landed claim is found by the re-probe.
//
// Probe reads use wcas.ReadVolatile — no announcement CAS, no
// link-and-persist flush — which is sound for key cells because they
// are monotone (EMPTY → k, never swung by a Write): the volatile read
// either sees the claim or predates it, and either outcome is a state
// the probe could have observed under the announced protocol. A probe
// that claims nothing is therefore entirely persistence-free, which is
// what lets the probe capsules ride the capsule read-only tier.
func (m *Map) find(pid int, k uint64, claim bool) (si int, bucket uint32, ok bool) {
	si, start := m.locate(k)
	sg := m.segs[si]
	h := m.hs[pid][si]
	for i := uint32(0); i < sg.buckets; i++ {
		b := (start + i) & sg.mask
		kw := h.ReadVolatile(keyObj(b))
		if kw == k {
			return si, b, true
		}
		if kw == 0 {
			if !claim {
				return 0, 0, false
			}
			// The claim CAS is the probe tier's documented demotion
			// point: read-only callers pass claim=false and return
			// before it, and putProbe (the only claim=true caller)
			// closes with BoundaryRO, which pays the full boundary
			// persist once a claim can have fired.
			//persist:ro-fallback
			if h.CAS(keyObj(b), 0, k) {
				return si, b, true
			}
			// Lost the claim race; if the winner inserted our key we
			// share the bucket, otherwise keep probing past it.
			if h.ReadVolatile(keyObj(b)) == k {
				return si, b, true
			}
		}
	}
	return 0, 0, false
}

func packLoc(si int, b uint32) uint64  { return uint64(si)<<32 | uint64(b) }
func unpackLoc(w uint64) (int, uint32) { return int(w >> 32), uint32(w) }

// getCap is the fully read-only lookup: volatile probe and volatile
// value resolution. Under a light Invoke at depth 0 its completion is
// volatile too — zero flushes, fences, CASes and persisted boundaries
// per Get; a crash anywhere inside it erases every trace of the lookup,
// and its re-execution is a fresh, equally valid linearization. Called
// at depth > 0 it returns with an ordinary committed Return. See the
// wcas.ReadVolatile invariant for why the value may be acted on only
// volatilely.
func (m *Map) getCap(c *capsule.Ctx) {
	c.ReadOnly()
	k := c.Local(sKey)
	checkKV(k, 0)
	pid := c.P().ID()
	si, b, ok := m.find(pid, k, false)
	if !ok {
		c.Done(0, 0)
		return
	}
	v := m.hs[pid][si].ReadVolatile(valObj(b))
	if v == 0 {
		c.Done(0, 0)
		return
	}
	c.Done(1, v-1)
}

// putProbe (and the other probe capsules below) ride the read-only
// tier until the first claim: BoundaryRO elides the boundary persist
// when the probe found an existing bucket (pure reads — a crash re-runs
// the probe against monotone key cells and resolves the same bucket,
// then repeats the idempotent blind write), and persists exactly like
// Boundary when the probe claimed (the claim CAS is a persistent
// effect, and the resolved location must survive a crash once the
// claim can).
func (m *Map) putProbe(c *capsule.Ctx) {
	k := c.Local(sKey)
	checkKV(k, c.Local(sVal))
	si, b, ok := m.find(c.P().ID(), k, true)
	if !ok {
		c.Done(0) // table full (may follow a claim attempt; persist)
		return
	}
	c.SetLocal(sLoc, packLoc(si, b))
	c.BoundaryRO(pcPutWrite)
}

func (m *Map) putWrite(c *capsule.Ctx) {
	si, b := unpackLoc(c.Local(sLoc))
	m.hs[c.P().ID()][si].Write(valObj(b), c.Local(sVal)+1)
	c.Done(1)
}

func (m *Map) delProbe(c *capsule.Ctx) {
	c.ReadOnly()
	k := c.Local(sKey)
	checkKV(k, 0)
	si, b, ok := m.find(c.P().ID(), k, false)
	if !ok {
		c.Done(0) // absent: the whole Delete was a pure read
		return
	}
	c.SetLocal(sLoc, packLoc(si, b))
	c.BoundaryRO(pcDelWrite)
}

func (m *Map) delWrite(c *capsule.Ctx) {
	si, b := unpackLoc(c.Local(sLoc))
	m.hs[c.P().ID()][si].Write(valObj(b), 0)
	c.Done(1)
}

func (m *Map) casProbe(c *capsule.Ctx) {
	c.ReadOnly()
	k := c.Local(sKey)
	checkKV(k, c.Local(sNew))
	// The expected value is +1-encoded too: 2^64-1 would wrap to the
	// tombstone encoding and "succeed" against an absent value.
	checkKV(k, c.Local(sVal))
	si, b, ok := m.find(c.P().ID(), k, false)
	if !ok {
		c.Done(0) // absent: the whole Cas was a pure read
		return
	}
	c.SetLocal(sLoc, packLoc(si, b))
	c.BoundaryRO(pcCasExec)
}

func (m *Map) casExec(c *capsule.Ctx) {
	si, b := unpackLoc(c.Local(sLoc))
	ok := m.hs[c.P().ID()][si].CAS(valObj(b), c.Local(sVal)+1, c.Local(sNew)+1)
	if ok {
		c.Done(1)
		return
	}
	c.Done(0)
}

// Len counts present keys; quiescent helper.
func (m *Map) Len(port *pmem.Port) int {
	n := 0
	for _, sg := range m.segs {
		for b := uint32(0); b < sg.buckets; b++ {
			if sg.arr.Peek(port, keyObj(b)) != 0 && sg.arr.Peek(port, valObj(b)) != 0 {
				n++
			}
		}
	}
	return n
}

// Dump returns the full contents; quiescent helper for shadow-model
// comparison.
func (m *Map) Dump(port *pmem.Port) map[uint64]uint64 {
	out := map[uint64]uint64{}
	for _, sg := range m.segs {
		for b := uint32(0); b < sg.buckets; b++ {
			k := sg.arr.Peek(port, keyObj(b))
			if k == 0 {
				continue
			}
			if v := sg.arr.Peek(port, valObj(b)); v != 0 {
				out[k] = v - 1
			}
		}
	}
	return out
}

// Volatile is the unprotected baseline: the same open-addressing map
// directly over persistent-memory words — no capsules, no writable-CAS
// indirection, no flushes. It is what the harness's map-volatile kind
// measures against, exactly as the volatile MSQ anchors the queue
// figures.
type Volatile struct {
	keys    pmem.Addr
	vals    pmem.Addr
	buckets uint32
	mask    uint32
}

// NewVolatile builds the baseline with the given capacity (rounded up
// to a power of two).
func NewVolatile(mem *pmem.Memory, buckets int) *Volatile {
	n := nextPow2(uint32(buckets))
	return &Volatile{
		keys:    mem.Alloc(uint64(n)),
		vals:    mem.Alloc(uint64(n)),
		buckets: n,
		mask:    n - 1,
	}
}

func (vm *Volatile) probe(port *pmem.Port, k uint64, claim bool) (uint32, bool) {
	start := uint32(mix(k)) & vm.mask
	for i := uint32(0); i < vm.buckets; i++ {
		b := (start + i) & vm.mask
		kw := port.Read(vm.keys + pmem.Addr(b))
		if kw == k {
			return b, true
		}
		if kw == 0 {
			if !claim {
				return 0, false
			}
			if port.CAS(vm.keys+pmem.Addr(b), 0, k) {
				return b, true
			}
			if port.Read(vm.keys+pmem.Addr(b)) == k {
				return b, true
			}
		}
	}
	return 0, false
}

// Get returns the value of k.
func (vm *Volatile) Get(port *pmem.Port, k uint64) (uint64, bool) {
	b, ok := vm.probe(port, k, false)
	if !ok {
		return 0, false
	}
	v := port.Read(vm.vals + pmem.Addr(b))
	if v == 0 {
		return 0, false
	}
	return v - 1, true
}

// Put sets k to v, reporting false only when the table is full.
func (vm *Volatile) Put(port *pmem.Port, k, v uint64) bool {
	checkKV(k, v)
	b, ok := vm.probe(port, k, true)
	if !ok {
		return false
	}
	port.Write(vm.vals+pmem.Addr(b), v+1)
	return true
}

// Delete tombstones k.
func (vm *Volatile) Delete(port *pmem.Port, k uint64) bool {
	b, ok := vm.probe(port, k, false)
	if !ok {
		return false
	}
	port.Write(vm.vals+pmem.Addr(b), 0)
	return true
}

// Cas conditionally replaces k's value.
func (vm *Volatile) Cas(port *pmem.Port, k, old, new uint64) bool {
	checkKV(k, new)
	checkKV(k, old) // 2^64-1 would wrap to the tombstone encoding
	b, ok := vm.probe(port, k, false)
	if !ok {
		return false
	}
	return port.CAS(vm.vals+pmem.Addr(b), old+1, new+1)
}

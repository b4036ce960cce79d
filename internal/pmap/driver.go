package pmap

import (
	"fmt"
	"math/rand"

	"delayfree/internal/capsule"
	"delayfree/internal/history"
	"delayfree/internal/workload"
)

// OpKind enumerates scripted map operations.
type OpKind uint8

// Scripted operation kinds.
const (
	OpPut OpKind = iota
	OpDelete
	OpGet
)

// Op is one scripted operation.
type Op struct {
	Kind OpKind
	Key  uint64
	Val  uint64
}

// Script builds process pid's deterministic operation sequence over its
// private keys: readPct percent Gets, the rest puts (uniquely tagged
// values) and deletes in a 2:1 ratio. readPct 25 reproduces the
// historical 50/25/25 mix exactly (same RNG draws, same mapping).
// Determinism matters twice — a restarted process regenerates the
// identical script, and the shadow model replays it.
func Script(pid, n int, keys []uint64, seed int64, readPct int) []Op {
	if readPct < 0 || readPct > 100 {
		panic(fmt.Sprintf("pmap: readPct %d out of range", readPct))
	}
	writes := 100 - readPct
	putHi := writes * 2 / 3
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, n)
	for i := range ops {
		k := keys[rng.Intn(len(keys))]
		switch r := rng.Intn(100); {
		case r < putHi:
			ops[i] = Op{OpPut, k, uint64(pid)<<40 | uint64(i)}
		case r < writes:
			ops[i] = Op{OpDelete, k, 0}
		default:
			ops[i] = Op{OpGet, k, 0}
		}
	}
	return ops
}

// Apply replays a script into a model map (the shadow the crash-stress
// checks against).
func Apply(model map[uint64]uint64, ops []Op) {
	for _, op := range ops {
		switch op.Kind {
		case OpPut:
			model[op.Key] = op.Val
		case OpDelete:
			delete(model, op.Key)
		}
	}
}

// Driver slots.
const (
	drvIdx = 1
	drvOK  = 2
	drvVal = 3
)

// histOp maps a scripted kind to its history op code.
func histOp(k OpKind) history.Op {
	switch k {
	case OpPut:
		return history.OpPut
	case OpDelete:
		return history.OpDelete
	default:
		return history.OpGet
	}
}

// RegisterScriptDriver registers a depth-0 routine that executes
// scripts[pid] one operation per Call, persisting the script index at
// each boundary so a crashed process resumes exactly where it stopped.
//
// With keepGoing nil the driver finishes after one pass. Otherwise the
// script repeats (operation i is scripts[pid][i mod len]) until a pass
// completes and keepGoing() reports false — crash-stress runs use this
// to keep the workload alive until the crash quota is met. keepGoing
// may be read at different times by a repeated dispatch capsule; that
// is safe because the exactness check depends only on the *persisted*
// final index, never on when the driver decided to stop.
//
// With rec non-nil every operation is announced before dispatch and its
// result recorded after the Call commits, keyed by the global script
// index i (unique per op even when the script loops). A capsule
// repetition re-records the same (op, i), which the history merge
// collapses into one conservative interval.
func RegisterScriptDriver(reg *capsule.Registry, m *Map, scripts [][]Op, keepGoing func() bool, rec *history.Recorder) capsule.RoutineID {
	return reg.Register("pmap-script-driver", false,
		func(c *capsule.Ctx) { // pc0: dispatch the next operation
			sc := scripts[c.P().ID()]
			i := c.Local(drvIdx)
			if i >= uint64(len(sc)) && (keepGoing == nil || !keepGoing()) {
				c.Finish()
				return
			}
			op := sc[i%uint64(len(sc))]
			rec.Invoke(c.P().ID(), histOp(op.Kind), i, op.Key, op.Val, c.Mem().Stats)
			switch op.Kind {
			case OpPut:
				c.Call(m.Routine(), m.PutEntry(), 1, []uint64{op.Key, op.Val}, []int{drvOK})
			case OpDelete:
				c.Call(m.Routine(), m.DelEntry(), 1, []uint64{op.Key}, []int{drvOK})
			default:
				c.Call(m.Routine(), m.GetEntry(), 1, []uint64{op.Key}, []int{drvOK, drvVal})
			}
		},
		func(c *capsule.Ctx) { // pc1: record the result, advance the index
			if rec.Enabled() {
				sc := scripts[c.P().ID()]
				i := c.Local(drvIdx)
				op := sc[i%uint64(len(sc))]
				var res uint64
				if op.Kind == OpGet {
					res = c.Local(drvVal) // drvVal is only written by Gets
				}
				rec.Return(c.P().ID(), histOp(op.Kind), i, c.Local(drvOK) != 0, res, c.Mem().Stats)
			}
			c.SetLocal(drvIdx, c.Local(drvIdx)+1)
			c.Boundary(0)
		},
	)
}

// stressGeom is the map geometry and script mix of one round spec. The
// registered stressers share one geometry; crash_test.go builds the odd
// ones directly.
type stressGeom struct {
	shards, buckets int
	// readPct is the scripts' Get percentage (puts and deletes 2:1 in
	// the rest). Read-heavy rounds (90) exercise the capsule read-only
	// tier — elided boundaries and flush-free wcas reads — under
	// full-system crashes.
	readPct int
	// fullFrames keeps two-copy capsule frames in the shared model too
	// (the default there is compact frames).
	fullFrames bool
}

// stressKeys is each process's private key count (the scripts use
// disjoint key ranges).
const stressKeys = 24

// stressSpec is the map family's round spec (the round itself is
// workload.RunRound): processes execute deterministic disjoint-key
// scripts through the capsule driver, looping until the crash quota is
// met. Crashes are always ganged ("all processors fail together",
// Section 2.1) because recovery of the writable-CAS pools is a per-wave
// pass: Map.Recover runs once per crash before anyone resumes. The
// round fails if the final map contents differ from the shadow model
// replayed to each process's persisted operation count — i.e. if any
// crash lost, duplicated or corrupted an operation.
func stressSpec(name string, g stressGeom) workload.StressSpec {
	return workload.StressSpec{
		Name:    name,
		Family:  "map",
		Checker: history.CheckMapLWW,
		Ops:     300,
		Crashes: 250,
		Gang:    true,
		// The floor must leave room for a full recovery pass (one
		// process per wave replays Array.Recover for every segment).
		MinGap: func(n int) int64 {
			m := New(Config{P: n, Buckets: g.buckets, Shards: g.shards})
			recCost := int64(m.shards) * int64(4*int(m.bps)+2*n*n+n)
			return 2*recCost + 1500
		},
		MaxGap: func(minGap int64) int64 { return 2 * minGap },
		Words: func(r *workload.Round) uint64 {
			return Words(g.buckets, g.shards, r.N) + 1<<13
		},
		Build: func(r *workload.Round) workload.Hooks {
			m := New(Config{
				Mem:     r.Mem,
				P:       r.N,
				Buckets: g.buckets,
				Shards:  g.shards,
				Opt:     r.Shared && !g.fullFrames,
				Durable: r.Shared,
			})
			setup := r.Mem.NewPort()
			m.Init(setup, nil)
			m.Bind(r.RT)
			scripts := make([][]Op, r.N)
			for pid := range scripts {
				keys := make([]uint64, stressKeys)
				for j := range keys {
					keys[j] = uint64(pid)<<32 | uint64(j+1)
				}
				scripts[pid] = Script(pid, r.Ops, keys, r.Seed+int64(pid)*7919, g.readPct)
			}
			m.Register(r.Reg)
			drv := RegisterScriptDriver(r.Reg, m, scripts, r.KeepGoing, r.Rec)
			for i := 0; i < r.N; i++ {
				r.Install(i, drv)
			}
			return workload.Hooks{
				Counter: drvIdx,
				Wave:    m.Recover,
				Final:   func() history.FinalState { return history.FinalState{Map: m.Dump(setup)} },
				Check: func(final history.FinalState, locals [][]uint64, rep *workload.StressReport) error {
					// Shadow model: replay each process's looped script up
					// to the operation count its driver persisted.
					model := map[uint64]uint64{}
					for i, l := range locals {
						n := l[drvIdx]
						if n < uint64(r.Ops) {
							return fmt.Errorf("process %d executed %d ops, script demands at least %d", i, n, r.Ops)
						}
						rep.Ops += n
						sc := scripts[i]
						for k := uint64(0); k < n; k++ {
							Apply(model, sc[k%uint64(len(sc)):][:1])
						}
					}
					got := final.Map
					if len(got) != len(model) {
						return fmt.Errorf("recovered map has %d keys, shadow model %d", len(got), len(model))
					}
					for k, v := range model {
						if gv, ok := got[k]; !ok || gv != v {
							return fmt.Errorf("key %#x: recovered %d (present=%v), shadow model %d", k, gv, ok, v)
						}
					}
					return nil
				},
			}
		},
	}
}

// StressSpecs returns the map family's stressers: the batched
// front-end, then the unbatched round and its readheavy variant, which
// runs the same exactness check over 90%-Get scripts so the read-only
// fast lane (elided boundaries, flush-free wcas reads) absorbs the bulk
// of the injected crashes.
func StressSpecs() []workload.StressSpec {
	return []workload.StressSpec{
		batchedStressSpec(),
		stressSpec("pmap", stressGeom{shards: 2, buckets: 256, readPct: 25}),
		stressSpec("pmap-readheavy", stressGeom{shards: 2, buckets: 256, readPct: 90}),
	}
}

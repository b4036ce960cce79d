package pmap

import (
	"fmt"

	"delayfree/internal/capsule"
	"delayfree/internal/history"
	"delayfree/internal/ingress"
	"delayfree/internal/workload"
)

// Crash-stress for the batched ingress front-end of the map family
// (protocol and accounting: ingress.BatchedStress): producers drive
// puts and deletes through the ring, the combiner applies batches
// through the wcas group-commit tier (NewBatchApplier): line-packed
// installs behind one install fence, swings with deferred Ptr
// persistence, one close fence per window. Completion tokens are held
// until the close, so a producer that observes its token knows the
// operation is durable. Unlike the queue and stack batches there is no
// single commit word, so a crash inside the deferred window may durably
// apply any *subset* of the unacknowledged operations (each
// individually atomic, per-line crash prefixes of the swing log); that
// is a valid outcome because every clipped operation was abandoned by
// its producer (invoked, never returned — absent-or-once).
//
// Keys are disjoint per producer, so the recovered map must decompose
// into per-producer last-write states; without an audit the round still
// checks that every recovered value decodes to a put some producer
// actually attempted on exactly that key.
const (
	// batchedGroupWindow is the combiner's wcas deferral window: small
	// enough that close fences land between crash gaps, large enough
	// that multiple batches share one (the crash sweep and the audit
	// both exercise the deferred region).
	batchedGroupWindow = 32
	batchedKeys        = 12 // distinct keys per producer
	batchedBuckets     = 256
)

// batchedKey is the deterministic key of producer pid's attempt i.
func batchedKey(pid int, attempt uint64) uint64 {
	return uint64(pid)<<32 | (1 + attempt%batchedKeys)
}

func init() {
	spec := ingress.BatchedStress{
		Name:   "pmap-batched",
		Family: "map",
		// 250 per model: the CI smoke runs both failure models, so one
		// audited sweep certifies ≥ 500 crashes over the group-commit
		// path.
		Crashes: 250,
		// Like the unbatched map rounds, crashes are always ganged:
		// recovery of the writable-CAS pools is a per-wave pass, and the
		// volatile ring dies with the wave.
		Gang: true,
		MinGap: func(n int) int64 {
			// + 2*buckets: the batcher rebuild scans Ptr once per recovery;
			// + 4*window: a close fence's FlushAddrs pass must fit the gap.
			recCost := int64(6*batchedBuckets + 2*n*n + n)
			return 2*recCost + 1500 + 25*ingress.StressBatchMax + 4*batchedGroupWindow
		},
		Words: func(r *workload.Round) uint64 {
			return BatchWords(batchedBuckets, 1, r.N, 1, 0, batchedGroupWindow) + 1<<15
		},
		Build: func(r *workload.Round) ingress.BatchedHooks {
			m := New(Config{
				Mem:     r.Mem,
				P:       r.N,
				Buckets: batchedBuckets,
				Shards:  1,
				Opt:     true,
				Durable: true,

				BatchCombiners: 1,
				BatchWindow:    batchedGroupWindow,
			})
			setup := r.Mem.NewPort()
			m.Init(setup, nil)
			m.Bind(r.RT)
			ba := NewBatchApplier(m)
			ops := make([]BatchOp, ingress.StressBatchMax)
			return ingress.BatchedHooks{
				Attempt: func(pid int, attempt uint64) ingress.Attempt {
					k := batchedKey(pid, attempt)
					if attempt%3 == 1 {
						return ingress.Attempt{Rec: ingress.Record{Op: ingress.OpDelete, A: k}, HOp: history.OpDelete}
					}
					return ingress.Attempt{
						Rec: ingress.Record{Op: ingress.OpPut, A: k, B: uint64(pid)<<40 | attempt},
						HOp: history.OpPut,
					}
				},
				Apply: func(c *capsule.Ctx, batch []ingress.Record) bool {
					for i := range batch {
						ops[i] = BatchOp{Del: batch[i].Op == ingress.OpDelete, K: batch[i].A, V: batch[i].B}
					}
					if !ba.Apply(c, ops[:len(batch)]) {
						panic("pmap: stress batch rejected; table sized to never fill")
					}
					return ba.Deferred(c.P().ID())
				},
				Close: func(c *capsule.Ctx) { ba.Close(c.P().ID()) },
				// One writable-CAS pool recovery per crash wave, before the
				// combiner resumes writing.
				Wave:  m.Recover,
				Final: func() history.FinalState { return history.FinalState{Map: m.Dump(setup)} },
				Check: func(final history.FinalState, idx, _ []uint64) error {
					// Every recovered value must decode to a put some producer
					// actually attempted, on exactly the key it was attempted
					// against.
					for k, v := range final.Map {
						pid := int(v >> 40)
						att := v & (1<<40 - 1)
						if pid >= len(idx) || att >= idx[pid] {
							return fmt.Errorf("key %#x holds %#x, which no producer ever wrote (pid=%d attempt=%d)", k, v, pid, att)
						}
						if att%3 == 1 {
							return fmt.Errorf("key %#x holds %#x, which was a delete, not a put", k, v)
						}
						if batchedKey(pid, att) != k {
							return fmt.Errorf("key %#x holds %#x, which was written to key %#x (misplaced operation)",
								k, v, batchedKey(pid, att))
						}
					}
					return nil
				},
			}
		},
	}.Spec()
	spec.Checker = history.CheckMapLWW
	workload.RegisterStressSpec(spec)
}

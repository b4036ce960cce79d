// Package history is the crash-aware observability layer: a
// low-overhead per-process operation-event recorder and an offline
// durable-linearizability checker over what it records.
//
// The crash-stress harness audits conservation (no loss, no dup) from
// persisted accounting, but it is blind to ordering — a recovered queue
// that delivers values out of FIFO order passes a conservation check.
// The recorder closes that gap: stress drivers announce every operation
// (Invoke) and its completion (Return) into per-process append-only
// logs, the proc runtime places full-system crash markers into the same
// global order while every process is stopped, and the offline checker
// then demands durable linearizability ("The Path to Durable
// Linearizability"): operations completed before a crash must linearize
// before it, and operations in flight at a crash may be dropped or
// included — but exactly once. A detectability pass
// ("Practical Detectability") cross-checks the per-op completed/
// not-completed verdict recovered from the capsule restart pointer
// against the trace.
//
// The recorder itself lives in host memory, not simulated persistent
// memory: it survives simulated crashes by design. That is the point —
// it is the volatile ground truth of what *happened*, checked against
// the durable record of what *survived*.
//
// Hot-path discipline: recording takes no locks — each simulated
// process appends only to its own growing log, and the global order
// comes from one atomic ticket counter. Logs are never capped, so a
// long round's history is never cut short. A nil *Recorder is valid and
// records nothing, so disabled runs pay no allocations and no branches
// beyond the nil check.
package history

import (
	"encoding/json"
	"fmt"
	"sync/atomic"

	"delayfree/internal/pmem"
)

// EventKind classifies one recorded event.
type EventKind uint8

// Event kinds.
const (
	// EvInvoke announces an operation: recorded by the driver
	// immediately before the operation starts.
	EvInvoke EventKind = iota
	// EvReturn records an operation's completion and its results.
	EvReturn
	// EvCrash is a full-system crash marker, recorded while every
	// process is stopped — so its ticket totally orders it against all
	// operation events.
	EvCrash
	// EvRestart marks a single process's crash-restart (the private
	// failure model); other processes keep running through it.
	EvRestart
)

var eventKindNames = [...]string{"invoke", "return", "crash", "restart"}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "?"
}

// MarshalJSON renders the kind as its name, keeping dumped artifacts
// readable without a decoder ring.
func (k EventKind) MarshalJSON() ([]byte, error) { return []byte(`"` + k.String() + `"`), nil }

// UnmarshalJSON accepts the name form, so dumped artifacts load back.
func (k *EventKind) UnmarshalJSON(data []byte) error {
	return unmarshalName(data, eventKindNames[:], "event kind", (*uint8)(k))
}

// Op is a family-neutral operation code. The sequential specifications
// in this package interpret them: OpEnq/OpDeq as a FIFO queue,
// OpPush/OpPop as a LIFO stack, OpPut/OpDelete/OpGet as a last-write-
// wins map.
type Op uint8

// Operation codes.
const (
	OpNone Op = iota
	OpEnq
	OpDeq
	OpPush
	OpPop
	OpPut
	OpDelete
	OpGet
)

var opNames = [...]string{"none", "enq", "deq", "push", "pop", "put", "delete", "get"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "?"
}

// MarshalJSON renders the op as its name.
func (o Op) MarshalJSON() ([]byte, error) { return []byte(`"` + o.String() + `"`), nil }

// UnmarshalJSON accepts the name form, so dumped artifacts load back.
func (o *Op) UnmarshalJSON(data []byte) error {
	return unmarshalName(data, opNames[:], "op", (*uint8)(o))
}

// unmarshalName decodes a quoted enum name back to its code.
func unmarshalName(data []byte, names []string, what string, out *uint8) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for i, n := range names {
		if n == s {
			*out = uint8(i)
			return nil
		}
	}
	return fmt.Errorf("history: unknown %s %q", what, s)
}

// Event is one recorded log entry. Ticket is the position in the global
// total order (drawn from one atomic counter, so ret(A) < inv(B) in
// ticket order proves A really returned before B was invoked); Epoch
// counts the full-system crashes that preceded the event.
type Event struct {
	Ticket uint64    `json:"ticket"`
	Epoch  uint64    `json:"epoch"`
	Proc   int32     `json:"proc"`
	Kind   EventKind `json:"kind"`
	Op     Op        `json:"op,omitempty"`
	ID     uint64    `json:"id"`
	Arg    uint64    `json:"arg,omitempty"`
	Arg2   uint64    `json:"arg2,omitempty"`
	Ok     bool      `json:"ok,omitempty"`
	Res    uint64    `json:"res,omitempty"`
	// Flushes/Fences on an EvReturn event are the pmem.Stats deltas the
	// operation's process issued between the Invoke and Return records
	// (Stats.Sub snapshots) — per-op persistence cost, for diagnosis.
	// Under capsule repetition the delta spans the recovered attempt,
	// so crash-straddling ops show their recovery cost here.
	Flushes uint64 `json:"flushes,omitempty"`
	Fences  uint64 `json:"fences,omitempty"`
}

// Recorder records operation events for a fixed set of processes.
// Methods are nil-safe: a nil Recorder records nothing.
type Recorder struct {
	ticket  atomic.Uint64
	epoch   atomic.Uint64
	logs    [][]Event
	invAt   []pmem.Stats // per-process stats snapshot at the last Invoke
	crashes []Event
}

// NewRecorder creates a recorder for procs processes. Each log is a
// plain growing slice, so a history is never cut short; appends
// allocate only when a log doubles, nothing per event amortized.
func NewRecorder(procs int) *Recorder {
	if procs < 1 {
		panic("history: NewRecorder needs at least one process")
	}
	return &Recorder{
		logs:  make([][]Event, procs),
		invAt: make([]pmem.Stats, procs),
	}
}

// Enabled reports whether events are being recorded.
func (r *Recorder) Enabled() bool { return r != nil }

func (r *Recorder) append(proc int, e Event) {
	e.Ticket = r.ticket.Add(1)
	e.Epoch = r.epoch.Load()
	e.Proc = int32(proc)
	r.logs[proc] = append(r.logs[proc], e)
}

// Invoke announces operation (op, id) of process proc with its
// arguments, snapshotting st (the process's pmem.Stats) so Return can
// report the op's flush/fence delta. Only the owning process may call
// it. A repeated announcement of the same (op, id) — a capsule
// replaying a crashed span — is recorded again and merged by History.
func (r *Recorder) Invoke(proc int, op Op, id, arg, arg2 uint64, st pmem.Stats) {
	if r == nil {
		return
	}
	r.invAt[proc] = st
	r.append(proc, Event{Kind: EvInvoke, Op: op, ID: id, Arg: arg, Arg2: arg2})
}

// Return records the completion of operation (op, id) of process proc
// with its result, attaching the flush/fence delta since the op's last
// Invoke snapshot. Only the owning process may call it.
func (r *Recorder) Return(proc int, op Op, id uint64, ok bool, res uint64, st pmem.Stats) {
	if r == nil {
		return
	}
	d := st.Sub(r.invAt[proc])
	r.append(proc, Event{Kind: EvReturn, Op: op, ID: id, Ok: ok, Res: res,
		Flushes: d.Flushes, Fences: d.Fences})
}

// Crash places a full-system crash marker. It must be called while
// every process is stopped (the proc runtime's OnSystemCrash hook runs
// exactly there), which is what makes the marker's ticket a correct
// global ordering point: nothing can be mid-event around it.
func (r *Recorder) Crash() {
	if r == nil {
		return
	}
	ep := r.epoch.Add(1)
	r.crashes = append(r.crashes, Event{
		Ticket: r.ticket.Add(1), Epoch: ep, Proc: -1, Kind: EvCrash, ID: ep,
	})
}

// Restart marks process proc's crash-restart (private failure model).
// Call from the process's own program entry, before resuming work.
func (r *Recorder) Restart(proc int) {
	if r == nil {
		return
	}
	r.append(proc, Event{Kind: EvRestart})
}

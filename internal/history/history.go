package history

import "sort"

// OpRecord is one operation after merging its raw events. A capsule that
// crashes mid-operation replays the span on recovery, so the same
// (proc, op, id) can be invoked and returned more than once; the merge
// keeps the conservative interval [first Invoke ticket, last Return
// ticket]. Any real-time precedence derived from that interval is
// therefore sound: if A's last Return precedes B's first Invoke, every
// attempt of A preceded every attempt of B.
type OpRecord struct {
	Proc int32  `json:"proc"`
	Op   Op     `json:"op"`
	ID   uint64 `json:"id"`
	Arg  uint64 `json:"arg,omitempty"`
	Arg2 uint64 `json:"arg2,omitempty"`

	Invoked  bool   `json:"invoked"`
	Returned bool   `json:"returned"`
	Ok       bool   `json:"ok,omitempty"`
	Res      uint64 `json:"res,omitempty"`

	InvTicket uint64 `json:"invTicket"`
	RetTicket uint64 `json:"retTicket,omitempty"`
	InvEpoch  uint64 `json:"invEpoch"`
	RetEpoch  uint64 `json:"retEpoch,omitempty"`

	// Invokes/Returns count the raw events merged into this record —
	// >1 means the op straddled at least one crash and was replayed.
	Invokes int `json:"invokes"`
	Returns int `json:"returns,omitempty"`
	// ReplayMismatch is set when two Return events for the same op
	// reported different (ok, res) — a replayed operation observing a
	// different outcome than its first completion.
	ReplayMismatch bool `json:"replayMismatch,omitempty"`

	Flushes uint64 `json:"flushes,omitempty"`
	Fences  uint64 `json:"fences,omitempty"`
}

// Precedes reports strict real-time precedence: a completed before b
// was invoked. Only this relation constrains linearization order; two
// overlapping operations may linearize either way.
func (a *OpRecord) Precedes(b *OpRecord) bool {
	return a.Returned && a.RetTicket < b.InvTicket
}

// CrashedBetween reports whether a full-system crash marker falls
// strictly inside the op's merged interval — the op straddled a crash.
func (a *OpRecord) CrashedBetween(crashes []Event) bool {
	for _, c := range crashes {
		if c.Ticket > a.InvTicket && (!a.Returned || c.Ticket < a.RetTicket) {
			return true
		}
	}
	return false
}

// FinalState is the durable post-recovery state of the audited object,
// captured by the stresser after the final full-system crash. Residue
// is ordered as drained: head→tail for a queue, top→bottom for a stack.
// Map holds the surviving key→value pairs for the map family.
type FinalState struct {
	Residue []uint64          `json:"residue,omitempty"`
	Map     map[uint64]uint64 `json:"map,omitempty"`
}

// History is a merged, checkable run trace.
type History struct {
	Ops      []OpRecord `json:"ops"`     // sorted by InvTicket
	Crashes  []Event    `json:"crashes"` // full-system crash markers
	Restarts int        `json:"restarts"`
	Final    FinalState `json:"final"`
	Procs    int        `json:"procs"`
}

type opKey struct {
	proc int32
	op   Op
	id   uint64
}

// History merges the recorder's raw per-process logs into per-op
// records. Call only after the run is quiescent (no process recording).
func (r *Recorder) History() *History {
	if r == nil {
		return &History{}
	}
	h := &History{
		Procs:   len(r.logs),
		Crashes: append([]Event(nil), r.crashes...),
	}
	merged := make(map[opKey]*OpRecord)
	order := make([]opKey, 0, 256)
	for proc, log := range r.logs {
		for i := range log {
			e := &log[i]
			switch e.Kind {
			case EvRestart:
				h.Restarts++
				continue
			case EvInvoke, EvReturn:
			default:
				continue
			}
			k := opKey{proc: int32(proc), op: e.Op, id: e.ID}
			rec := merged[k]
			if rec == nil {
				rec = &OpRecord{Proc: int32(proc), Op: e.Op, ID: e.ID}
				merged[k] = rec
				order = append(order, k)
			}
			switch e.Kind {
			case EvInvoke:
				if !rec.Invoked || e.Ticket < rec.InvTicket {
					rec.InvTicket, rec.InvEpoch = e.Ticket, e.Epoch
				}
				rec.Invoked = true
				rec.Invokes++
				rec.Arg, rec.Arg2 = e.Arg, e.Arg2
			case EvReturn:
				if rec.Returned && (rec.Ok != e.Ok || rec.Res != e.Res) {
					rec.ReplayMismatch = true
				}
				if !rec.Returned || e.Ticket > rec.RetTicket {
					rec.RetTicket, rec.RetEpoch = e.Ticket, e.Epoch
				}
				rec.Returned = true
				rec.Returns++
				rec.Ok, rec.Res = e.Ok, e.Res
				rec.Flushes += e.Flushes
				rec.Fences += e.Fences
			}
		}
	}
	h.Ops = make([]OpRecord, 0, len(order))
	for _, k := range order {
		rec := merged[k]
		if !rec.Invoked {
			// A Return with no Invoke would be a driver bug; synthesize
			// the invoke point so checks still see the op.
			rec.Invoked, rec.InvTicket, rec.InvEpoch = true, rec.RetTicket, rec.RetEpoch
		}
		h.Ops = append(h.Ops, *rec)
	}
	sort.Slice(h.Ops, func(i, j int) bool { return h.Ops[i].InvTicket < h.Ops[j].InvTicket })
	return h
}

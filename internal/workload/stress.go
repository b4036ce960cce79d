package workload

import (
	"fmt"
	"sync"

	"delayfree/internal/capsule"
	"delayfree/internal/history"
	"delayfree/internal/pmem"
	"delayfree/internal/proc"
)

// The crash-stress round, stated once for every family (DESIGN.md, "The
// workload registry", gives the argument): capsule drivers run under
// seeded step-count crash injection until the crash quota is met, a
// final full-system crash drops whatever was left unfenced, and the
// *durable* image is then judged against each process's persisted
// capsule counters — audited rounds first against the family's history
// checker and the Machine.Detect verdicts. A family contributes only a
// StressSpec: how to build its structure, which driver each process
// runs, what a restart must repair, and its residue/shadow check.

// StressSpec is one stresser's family-specific part of a round.
type StressSpec struct {
	Name, Family string
	// Ops and Crashes default the zero StressConfig fields (Procs
	// defaults to 4 everywhere). Crashes 0 leaves the round quota-less:
	// one pass of the script, crashes as they fall.
	Ops, Crashes int
	// Service counts processes run after the cfg.Procs recorded ones
	// (ingress combiners): crash-injected and required to finish like
	// the rest, but issuing no operations of their own.
	Service int
	// Gang makes every injected crash a full-system one in both models,
	// for structures whose recovery is a per-wave pass.
	Gang bool
	// MinGap and MaxGap default the crash-gap bounds for n processes.
	// The floor must leave room to finish a capsule (and a recovery
	// pass) after a restart wave, or the round livelocks.
	MinGap func(n int) int64
	MaxGap func(minGap int64) int64
	// Events estimates the operations one process records, for sizing
	// the audit recorder; nil means r.Ops.
	Events func(r *Round) int
	// Words sizes the memory, capsule process areas excluded.
	Words func(r *Round) uint64
	// Build constructs the structure in r.Mem, registers its routines
	// in r.Reg and installs every process's driver (Round.Install).
	Build func(r *Round) Hooks
}

// Round is the resolved state of one round, handed to the spec's funcs:
// the embedded config holds the values in force (defaults applied).
type Round struct {
	StressConfig
	N   int // Procs + Service
	Mem *pmem.Memory
	RT  *proc.Runtime
	Reg *capsule.Registry
	// Rec is nil unless the round is audited (its methods are nil-safe).
	Rec *history.Recorder
	// KeepGoing reports whether the crash quota is still unmet; nil in
	// a quota-less round. Drivers loop their scripts on it.
	KeepGoing func() bool

	bases []pmem.Addr
}

// Install installs drv as process i's depth-0 routine. The capsule
// process areas are allocated on first use, i.e. behind the structure
// Build has constructed by then.
func (r *Round) Install(i int, drv capsule.RoutineID, args ...uint64) {
	if r.bases == nil {
		r.bases = capsule.AllocProcAreas(r.Mem, r.N)
	}
	capsule.Install(r.RT.Proc(i).Mem(), r.bases[i], r.Reg, drv, args...)
}

// Hooks is what Build returns. Only Final and Check are required.
type Hooks struct {
	// Counter is the driver slot holding a process's committed-operation
	// count, judged by the detectability cross-check; 0 skips that check
	// (operation IDs with holes, see Audit).
	Counter int
	// Crash runs stopped-world at every full-system crash.
	Crash func()
	// Wave runs once per full-system crash, on the first process to
	// restart; the rest of the wave waits for it.
	Wave func(port *pmem.Port)
	// Restart runs on process i each time it restarts, after Wave.
	Restart func(i int)
	// Done runs when process i's program returns normally.
	Done func(i int)
	// Final reads the recovered state after the last crash.
	Final func() history.FinalState
	// Check judges final against every process's persisted driver
	// locals and adds the executed operations to rep.Ops.
	Check func(final history.FinalState, locals [][]uint64, rep *StressReport) error
}

// RegisterStressSpec registers spec as a stresser run by RunRound.
func RegisterStressSpec(spec StressSpec) {
	RegisterStresser(Stresser{
		Name:   spec.Name,
		Family: spec.Family,
		Run:    func(cfg StressConfig) (StressReport, error) { return RunRound(spec, cfg) },
	})
}

// RunRound runs one crash-stress round of spec under cfg and returns an
// error on any exactness violation.
func RunRound(spec StressSpec, cfg StressConfig) (StressReport, error) {
	if cfg.Ops < 0 || cfg.Crashes < 0 {
		return StressReport{}, fmt.Errorf("%s: negative Ops/Crashes (%d/%d)", spec.Name, cfg.Ops, cfg.Crashes)
	}
	r := &Round{StressConfig: cfg}
	if r.Procs <= 0 {
		r.Procs = 4
	}
	if r.Ops == 0 {
		r.Ops = spec.Ops
	}
	if r.Crashes == 0 {
		r.Crashes = spec.Crashes
	}
	r.N = r.Procs + spec.Service
	if r.MinGap == 0 {
		r.MinGap = spec.MinGap(r.N)
	}
	if r.MaxGap < r.MinGap {
		r.MaxGap = spec.MaxGap(r.MinGap)
	}
	mode := pmem.Private
	if r.Shared {
		mode = pmem.Shared
	}
	r.Mem = pmem.New(pmem.Config{
		Words:   spec.Words(r) + uint64(r.N)*capsule.ProcWords,
		Mode:    mode,
		Checked: true,
		Seed:    r.Seed,
	})
	rt := proc.NewRuntime(r.Mem, r.N)
	r.RT = rt
	// Shared rounds gang crashes into full-system failures; private
	// rounds inject independent per-process crashes (the paper's PPM
	// failure mode), so one process recovers while peers keep mutating.
	rt.SystemCrashMode = r.Shared || spec.Gang
	r.Reg = capsule.NewRegistry()
	crashEvents := func() uint64 {
		if rt.SystemCrashMode {
			return rt.SystemCrashes()
		}
		var n uint64
		for i := 0; i < r.N; i++ {
			n += rt.Proc(i).Restarts()
		}
		return n
	}
	if r.Crashes > 0 {
		r.KeepGoing = func() bool { return crashEvents() < uint64(r.Crashes) }
	}
	if r.Audit {
		// The recorder lives in host memory: it is the volatile ground
		// truth the durable state is checked against.
		events := r.Ops
		if spec.Events != nil {
			events = spec.Events(r)
		}
		r.Rec = history.NewRecorder(r.Procs, history.StressCapacity(events, r.Crashes, r.MaxGap))
	}

	h := spec.Build(r)
	// The stopped-world crash hook is the one instant a global crash
	// marker can be placed without racing any process's own events.
	rt.OnSystemCrash = func(uint64) {
		r.Rec.Crash()
		if h.Crash != nil {
			h.Crash()
		}
	}
	for i := 0; i < r.N; i++ {
		rt.Proc(i).AutoCrash(r.Seed*31+int64(i), r.MinGap, r.MaxGap)
	}
	// One Wave per full-system crash, by the first process of the
	// restart wave; the rest block on the mutex until it is done, so
	// nobody resumes over unrecovered state. A crash injected inside
	// Wave unwinds through the deferred unlock and the next wave reruns
	// it.
	var waveMu sync.Mutex
	var waved uint64
	wave := func(p *proc.Proc) {
		e := rt.SystemCrashes()
		waveMu.Lock()
		defer waveMu.Unlock()
		if e > waved {
			h.Wave(p.Mem())
			waved = e
		}
	}
	rt.RunToCompletion(func(i int) proc.Program {
		return func(p *proc.Proc) {
			// Peek, not Crashed: the flag belongs to the first capsule
			// after the restart (Ctx.Crashed), which Machine.Run feeds.
			if p.PeekCrashed() {
				if i < r.Procs {
					r.Rec.Restart(i)
				}
				if h.Wave != nil {
					wave(p)
				}
				if h.Restart != nil {
					h.Restart(i)
				}
			}
			capsule.NewMachine(p, r.Reg, r.bases[i]).Run()
			if h.Done != nil {
				h.Done(i)
			}
		}
	})
	for i := 0; i < r.N; i++ {
		rt.Proc(i).Disarm()
	}
	// A final crash drops anything left unfenced: everything below
	// judges the durable state.
	rt.CrashSystem()

	report := StressReport{Crashes: rt.SystemCrashes(), Stats: rt.TotalStats()}
	for i := 0; i < r.N; i++ {
		report.Restarts += rt.Proc(i).Restarts()
	}
	final := h.Final()
	machine := func(i int) *capsule.Machine { return capsule.NewMachine(rt.Proc(i), r.Reg, r.bases[i]) }

	// Ordering audit first: when a round is broken the failing-history
	// artifact must be written even if the checks below would reject
	// the round on their own.
	if r.Rec != nil {
		var completed []uint64
		if h.Counter != 0 {
			completed = make([]uint64, r.Procs)
			for i := range completed {
				completed[i] = machine(i).Detect(h.Counter).Completed
			}
		}
		hist := r.Rec.History()
		hist.Final = final
		meta := history.RunMeta{Stresser: spec.Name, Family: spec.Family, Seed: r.Seed, Shared: r.Shared, Procs: r.Procs}
		if err := Audit(meta, r.ArtifactDir, hist, completed, report.Stats); err != nil {
			return report, err
		}
	}
	locals := make([][]uint64, r.N)
	for i := range locals {
		depth, pc, l := machine(i).LoadState()
		if depth != 0 || pc != capsule.PCDone {
			return report, fmt.Errorf("proc %d did not finish: depth=%d pc=%d", i, depth, pc)
		}
		locals[i] = l
	}
	if err := h.Check(final, locals, &report); err != nil {
		return report, err
	}
	if got := crashEvents(); got < uint64(r.Crashes) {
		return report, fmt.Errorf("only %d crash events absorbed, want %d", got, r.Crashes)
	}
	return report, nil
}

package workload

import (
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"delayfree/internal/capsule"
	"delayfree/internal/history"
)

// The shared round, driven by a fake family: a trivially correct
// persistent counter (announce, then commit the increment). The knobs
// break one thing at a time so each shared check is seen to fire.
type fakeRound struct {
	ignoreQuota bool  // finish after Ops increments whatever KeepGoing says
	checkErr    error // what the family's own Check reports
	reinstall   bool  // process 0 re-installs its driver once finished

	sawCrashed atomic.Bool // some capsule observed Ctx.Crashed()
}

const fakeCounter = 1

// fakeViolations is what the "fake" family's history checker reports.
var fakeViolations []history.Violation

func init() {
	RegisterHistoryChecker(HistoryChecker{
		Family: "fake",
		Check:  func(*history.History) []history.Violation { return fakeViolations },
	})
}

func (f *fakeRound) spec() StressSpec {
	return StressSpec{
		Name:    "fake-counter",
		Family:  "fake",
		Ops:     50,
		Crashes: 10,
		MinGap:  func(int) int64 { return 150 },
		MaxGap:  func(minGap int64) int64 { return 3 * minGap },
		Words:   func(*Round) uint64 { return 1 << 12 },
		Build: func(r *Round) Hooks {
			note := func(c *capsule.Ctx) {
				if c.Crashed() {
					f.sawCrashed.Store(true)
				}
			}
			drv := r.Reg.Register("fake-counter", false,
				func(c *capsule.Ctx) { // pc0: announce increment i, or finish
					note(c)
					i := c.Local(fakeCounter)
					if i >= uint64(r.Ops) && (f.ignoreQuota || r.KeepGoing == nil || !r.KeepGoing()) {
						c.Finish()
						return
					}
					r.Rec.Invoke(c.P().ID(), history.OpPut, i, i, 0, c.Mem().Stats)
					c.Boundary(1)
				},
				func(c *capsule.Ctx) { // pc1: commit it
					note(c)
					i := c.Local(fakeCounter)
					r.Rec.Return(c.P().ID(), history.OpPut, i, true, 0, c.Mem().Stats)
					c.SetLocal(fakeCounter, i+1)
					c.Boundary(0)
				})
			for i := 0; i < r.N; i++ {
				r.Install(i, drv)
			}
			h := Hooks{
				Counter: fakeCounter,
				Final:   func() history.FinalState { return history.FinalState{} },
				Check: func(_ history.FinalState, locals [][]uint64, rep *StressReport) error {
					for _, l := range locals {
						rep.Ops += l[fakeCounter]
					}
					return f.checkErr
				},
			}
			if f.reinstall {
				h.Done = func(i int) {
					if i == 0 {
						r.Install(0, drv) // back to pc 0: durably not done
					}
				}
			}
			return h
		},
	}
}

func TestRoundCleanInBothModels(t *testing.T) {
	for _, shared := range []bool{false, true} {
		f := &fakeRound{}
		rep, err := RunRound(f.spec(), StressConfig{Procs: 3, Seed: 1, Shared: shared, Audit: true, ArtifactDir: t.TempDir()})
		if err != nil {
			t.Fatalf("shared=%v: %v", shared, err)
		}
		if rep.Restarts < 10 || rep.Ops < 3*50 {
			t.Fatalf("shared=%v: report %+v", shared, rep)
		}
		// The wrapper peeks the crashed flag and leaves it for
		// Machine.Run, so the first capsule after a restart sees it.
		if !f.sawCrashed.Load() {
			t.Fatalf("shared=%v: no capsule observed Ctx.Crashed() across %d restarts", shared, rep.Restarts)
		}
	}
}

func TestRoundRejectsNegativeConfig(t *testing.T) {
	for _, cfg := range []StressConfig{{Ops: -1}, {Crashes: -1}} {
		if _, err := RunRound((&fakeRound{}).spec(), cfg); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Fatalf("cfg %+v: err = %v", cfg, err)
		}
	}
}

func TestRoundReportsQuotaShortfall(t *testing.T) {
	// Gaps too wide for any crash to land, and a driver that does not
	// wait for the quota: only the final crash is absorbed.
	f := &fakeRound{ignoreQuota: true}
	_, err := RunRound(f.spec(), StressConfig{Procs: 2, Shared: true, MinGap: 1 << 40})
	if err == nil || !strings.Contains(err.Error(), "crash events absorbed, want 10") {
		t.Fatalf("err = %v", err)
	}
}

func TestRoundReportsUnfinishedProcess(t *testing.T) {
	f := &fakeRound{reinstall: true}
	_, err := RunRound(f.spec(), StressConfig{Procs: 2, Seed: 3})
	if err == nil || !strings.Contains(err.Error(), "proc 0 did not finish") {
		t.Fatalf("err = %v", err)
	}
}

func TestRoundAuditsBeforeFamilyCheck(t *testing.T) {
	fakeViolations = []history.Violation{{Spec: "fake", Code: "planted", Msg: "planted violation"}}
	defer func() { fakeViolations = nil }()
	dir := t.TempDir()
	f := &fakeRound{checkErr: errors.New("family check also fails")}
	_, err := RunRound(f.spec(), StressConfig{Procs: 2, Seed: 5, Shared: true, Audit: true, ArtifactDir: dir})
	if err == nil || !strings.Contains(err.Error(), "planted") {
		t.Fatalf("audit verdict did not win: %v", err)
	}
	if arts, _ := filepath.Glob(filepath.Join(dir, "history-*.json")); len(arts) != 1 {
		t.Fatalf("failing-history artifacts: %v", arts)
	}
	// Unaudited, the same round falls through to the family's check.
	if _, err := RunRound(f.spec(), StressConfig{Procs: 2, Seed: 5, Shared: true}); err == nil || !strings.Contains(err.Error(), "family check also fails") {
		t.Fatalf("unaudited err = %v", err)
	}
}

package rcas

import (
	"testing"
	"testing/quick"

	"delayfree/internal/pmem"
)

func TestPackRoundTrip(t *testing.T) {
	x := Pack(12345, 17, 999999)
	if Val(x) != 12345 || Pid(x) != 17 || Seq(x) != 999999 {
		t.Fatalf("round trip: %d %d %d", Val(x), Pid(x), Seq(x))
	}
}

func TestPackQuick(t *testing.T) {
	f := func(val, seq uint64, pid uint8) bool {
		v := val & MaxVal
		s := seq & MaxSeq
		p := int(pid)
		x := Pack(v, p, s)
		return Val(x) == v && Pid(x) == p && Seq(x) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackLimitsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { Pack(MaxVal+1, 0, 0) },
		func() { Pack(0, 0, MaxSeq+1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestAlias(t *testing.T) {
	if Alias(3, 8) != 11 {
		t.Fatalf("alias: %d", Alias(3, 8))
	}
}

// TestAnonTag pins the anonymous tag's shape: 64 distinct tags per
// capsule seq, none shared with a neighbouring seq, every tag packable,
// and a silent wrap after anonWrapSeqs capsule seqs.
func TestAnonTag(t *testing.T) {
	const anonWrapSeqs = 1 << 22 // 2^28 tag space / 64 tags per seq
	for _, seq := range []uint64{0, 1, anonWrapSeqs / 2, anonWrapSeqs - 1} {
		seen := make(map[uint64]bool)
		for ctr := uint64(0); ctr < 128; ctr++ {
			tag := AnonTag(seq, ctr)
			if tag/64 != seq {
				t.Fatalf("AnonTag(%d, %d) = %d belongs to seq %d", seq, ctr, tag, tag/64)
			}
			Pack(0, 0, tag)
			seen[tag] = true
		}
		if len(seen) != 64 {
			t.Fatalf("seq %d: %d distinct tags, want 64", seq, len(seen))
		}
	}
	if got := AnonTag(anonWrapSeqs+5, 7); got != AnonTag(5, 7) {
		t.Fatalf("AnonTag past the wrap = %d, want %d (seq %d again)", got, AnonTag(5, 7), 5)
	}
}

// spaces builds both implementations for table-driven tests.
func spaces(mem *pmem.Memory, P int) map[string]CasSpace {
	return map[string]CasSpace{
		"alg1":   NewSpace(mem, P),
		"attiya": NewAttiya(mem, P),
	}
}

func TestCasBasics(t *testing.T) {
	mem := pmem.New(pmem.Config{Words: 1 << 16})
	for name, s := range spaces(mem, 4) {
		t.Run(name, func(t *testing.T) {
			p := mem.NewPort()
			x := mem.AllocLines(1)
			InitCell(p, x, 100, Alias(0, 4), 0)
			exp := s.ReadFull(p, x)
			if Val(exp) != 100 {
				t.Fatalf("init value %d", Val(exp))
			}
			if !s.Cas(p, x, exp, 101, 1, 2) {
				t.Fatal("CAS should succeed")
			}
			if s.Cas(p, x, exp, 102, 2, 2) {
				t.Fatal("stale CAS should fail")
			}
			got := s.ReadFull(p, x)
			if Val(got) != 101 || Pid(got) != 2 || Seq(got) != 1 {
				t.Fatalf("triple %d/%d/%d", Val(got), Pid(got), Seq(got))
			}
		})
	}
}

func TestRecoverAfterUnobservedSuccess(t *testing.T) {
	// The process still owns the cell: recovery must self-notify.
	mem := pmem.New(pmem.Config{Words: 1 << 16})
	for name, s := range spaces(mem, 4) {
		t.Run(name, func(t *testing.T) {
			p := mem.NewPort()
			x := mem.AllocLines(1)
			InitCell(p, x, 5, Alias(1, 4), 0)
			exp := s.ReadFull(p, x)
			if !s.Cas(p, x, exp, 6, 7, 3) {
				t.Fatal("CAS failed")
			}
			seq, flag := s.Recover(p, x, 3)
			if !flag || seq != 7 {
				t.Fatalf("Recover=(%d,%v), want (7,true)", seq, flag)
			}
			if !s.CheckRecovery(p, x, 7, 3) {
				t.Fatal("CheckRecovery should confirm")
			}
		})
	}
}

func TestRecoverAfterOverwrite(t *testing.T) {
	// Another process overwrote the value; its notify must preserve the
	// evidence of our success.
	mem := pmem.New(pmem.Config{Words: 1 << 16})
	for name, s := range spaces(mem, 4) {
		t.Run(name, func(t *testing.T) {
			p0 := mem.NewPort()
			p1 := mem.NewPort()
			x := mem.AllocLines(1)
			InitCell(p0, x, 5, Alias(0, 4), 0)
			exp := s.ReadFull(p0, x)
			if !s.Cas(p0, x, exp, 6, 3, 0) {
				t.Fatal("CAS 0 failed")
			}
			exp1 := s.ReadFull(p1, x)
			if !s.Cas(p1, x, exp1, 7, 9, 1) {
				t.Fatal("CAS 1 failed")
			}
			if !s.CheckRecovery(p0, x, 3, 0) {
				t.Fatal("process 0's success lost after overwrite")
			}
			if seq, flag := s.Recover(p1, x, 1); !flag || seq != 9 {
				t.Fatalf("process 1 Recover=(%d,%v)", seq, flag)
			}
		})
	}
}

func TestRecoverAfterFailure(t *testing.T) {
	mem := pmem.New(pmem.Config{Words: 1 << 16})
	for name, s := range spaces(mem, 4) {
		t.Run(name, func(t *testing.T) {
			p0 := mem.NewPort()
			p1 := mem.NewPort()
			x := mem.AllocLines(1)
			InitCell(p0, x, 5, Alias(0, 4), 0)
			exp := s.ReadFull(p0, x)
			// Process 1 races in first, so process 0's CAS fails.
			if !s.Cas(p1, x, exp, 8, 2, 1) {
				t.Fatal("CAS 1 failed")
			}
			if s.Cas(p0, x, exp, 6, 4, 0) {
				t.Fatal("CAS 0 should fail")
			}
			if s.CheckRecovery(p0, x, 4, 0) {
				t.Fatal("failed CAS reported as executed")
			}
		})
	}
}

func TestStaleNotifierCannotResurrect(t *testing.T) {
	// A new announcement must not be clobbered by a notification for an
	// older operation (Algorithm 1's CAS guard / Attiya's seq filter).
	mem := pmem.New(pmem.Config{Words: 1 << 16})
	for name, s := range spaces(mem, 4) {
		t.Run(name, func(t *testing.T) {
			p0 := mem.NewPort()
			p1 := mem.NewPort()
			x := mem.AllocLines(1)
			y := mem.AllocLines(1)
			InitCell(p0, x, 1, Alias(0, 4), 0)
			InitCell(p0, y, 1, Alias(0, 4), 0)
			// Success with seq 1 on x, observed by p1.
			exp := s.ReadFull(p0, x)
			s.Cas(p0, x, exp, 2, 1, 0)
			// New operation with seq 2 on y fails (p1 races it).
			expy := s.ReadFull(p0, y)
			s.Cas(p1, y, expy, 9, 1, 1)
			if s.Cas(p0, y, expy, 3, 2, 0) {
				t.Fatal("y CAS should fail")
			}
			// Now p1 notifies p0 about the OLD success on x.
			exp1 := s.ReadFull(p1, x)
			s.Cas(p1, x, exp1, 4, 2, 1)
			// Recovery for seq 2 must still say "not executed".
			if s.CheckRecovery(p0, y, 2, 0) {
				t.Fatal("stale notification resurrected a failed CAS")
			}
		})
	}
}

func TestCasAnonPreservesPendingNotification(t *testing.T) {
	// Section 7: a wrap-up/generator CAS issued anonymously must not
	// clobber the evidence of the executor's CAS.
	mem := pmem.New(pmem.Config{Words: 1 << 16})
	for name, s := range spaces(mem, 4) {
		t.Run(name, func(t *testing.T) {
			p0 := mem.NewPort()
			x := mem.AllocLines(1)
			y := mem.AllocLines(1)
			InitCell(p0, x, 1, Alias(0, 4), 0)
			InitCell(p0, y, 1, Alias(0, 4), 0)
			exp := s.ReadFull(p0, x)
			if !s.Cas(p0, x, exp, 2, 5, 0) {
				t.Fatal("executor CAS failed")
			}
			// Anonymous helping CAS on y (e.g. a tail swing).
			expy := s.ReadFull(p0, y)
			if !s.CasAnon(p0, y, expy, 3, 6, 0) {
				t.Fatal("anon CAS failed")
			}
			// The executor CAS must still be recoverable.
			if !s.CheckRecovery(p0, x, 5, 0) {
				t.Fatal("anon CAS clobbered the executor's recovery state")
			}
			// And the anon CAS wrote under the alias id.
			if got := Pid(s.ReadFull(p0, y)); got != Alias(0, 4) {
				t.Fatalf("anon CAS wrote pid %d", got)
			}
		})
	}
}

func TestNormalCasOverwritesOwnAnnouncement(t *testing.T) {
	// Contrast with the anon test: a *normal* second CAS announces a new
	// sequence number, so recovery for it reflects the second operation.
	mem := pmem.New(pmem.Config{Words: 1 << 16})
	for name, s := range spaces(mem, 4) {
		t.Run(name, func(t *testing.T) {
			p0 := mem.NewPort()
			p1 := mem.NewPort()
			x := mem.AllocLines(1)
			y := mem.AllocLines(1)
			InitCell(p0, x, 1, Alias(0, 4), 0)
			InitCell(p0, y, 1, Alias(0, 4), 0)
			exp := s.ReadFull(p0, x)
			s.Cas(p0, x, exp, 2, 5, 0)
			// Second normal CAS on y with seq 6 fails.
			expy := s.ReadFull(p0, y)
			s.Cas(p1, y, expy, 9, 1, 1)
			if s.Cas(p0, y, expy, 3, 6, 0) {
				t.Fatal("y CAS should fail")
			}
			if s.CheckRecovery(p0, y, 6, 0) {
				t.Fatal("failed CAS reported executed")
			}
			// The older success (seq 5) is still confirmable per the
			// Recover spec when asked with its own number.
			if !s.CheckRecovery(p0, x, 5, 0) {
				t.Fatal("older success not confirmable")
			}
		})
	}
}

func TestSequentialQuickProperty(t *testing.T) {
	// Single-process property: CheckRecovery(seq) after each operation
	// equals the operation's own result. The space must be fresh per
	// run: sequence numbers restart at 0, and the monotonic-seq
	// contract forbids reusing announcement state across lifetimes.
	for name, mk := range map[string]func(*pmem.Memory, int) CasSpace{
		"alg1":   func(m *pmem.Memory, P int) CasSpace { return NewSpace(m, P) },
		"attiya": func(m *pmem.Memory, P int) CasSpace { return NewAttiya(m, P) },
	} {
		t.Run(name, func(t *testing.T) {
			f := func(ops []bool) bool {
				mem := pmem.New(pmem.Config{Words: 1 << 12})
				s := mk(mem, 2)
				p := mem.NewPort()
				x := mem.AllocLines(1)
				InitCell(p, x, 0, Alias(0, 2), 0)
				seq := uint64(0)
				for _, useStale := range ops {
					seq++
					exp := s.ReadFull(p, x)
					if useStale {
						// Fabricate a stale expected triple: must fail.
						exp ^= 1 << 5
					}
					ok := s.Cas(p, x, exp, Val(exp)+1, seq, 0)
					if ok == useStale {
						return false
					}
					if s.CheckRecovery(p, x, seq, 0) != ok {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

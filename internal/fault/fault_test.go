package fault

import (
	"math"
	"strings"
	"testing"

	"fafnir/internal/sim"
)

func TestEmptyPlan(t *testing.T) {
	var p Plan
	if !p.Empty() {
		t.Fatal("zero plan not empty")
	}
	inj, err := NewInjector(p, 32)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Active() {
		t.Fatal("empty injector reports active")
	}
	if inj.RankFailed(0, 0) || inj.ReadFault() || inj.PEStall(0) != 0 {
		t.Fatal("empty injector fired")
	}
	if got := inj.FailedRanks(math.MaxUint64); got != nil {
		t.Fatalf("empty injector lists failed ranks %v", got)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if inj.Active() || inj.RankFailed(3, 100) || inj.ReadFault() || inj.PEStall(1) != 0 {
		t.Fatal("nil injector fired")
	}
	if inj.FailedRanks(0) != nil {
		t.Fatal("nil injector lists failed ranks")
	}
}

func TestRankFailureTiming(t *testing.T) {
	p := Plan{RankFailures: []RankFailure{{Rank: 5, At: 1000}, {Rank: 7, At: 0}}}
	inj, err := NewInjector(p, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Active() {
		t.Fatal("injector with failures not active")
	}
	if inj.RankFailed(5, 999) {
		t.Fatal("rank 5 dark before its schedule")
	}
	if !inj.RankFailed(5, 1000) || !inj.RankFailed(5, 5000) {
		t.Fatal("rank 5 not dark at/after its schedule")
	}
	if !inj.RankFailed(7, 0) {
		t.Fatal("rank 7 not dark at cycle 0")
	}
	if inj.RankFailed(6, math.MaxUint64) {
		t.Fatal("healthy rank reported dark")
	}
	if got := inj.FailedRanks(0); len(got) != 1 || got[0] != 7 {
		t.Fatalf("FailedRanks(0) = %v, want [7]", got)
	}
	if got := inj.FailedRanks(1000); len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("FailedRanks(1000) = %v, want [5 7]", got)
	}
}

func TestEarliestFailureWins(t *testing.T) {
	p := Plan{RankFailures: []RankFailure{{Rank: 2, At: 500}, {Rank: 2, At: 100}}}
	inj, err := NewInjector(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !inj.RankFailed(2, 100) {
		t.Fatal("duplicate failure schedule did not keep the earliest cycle")
	}
}

func TestInjectorRejectsOutOfRangeRank(t *testing.T) {
	if _, err := NewInjector(Plan{RankFailures: []RankFailure{{Rank: 32}}}, 32); err == nil {
		t.Fatal("rank 32 of 32 accepted")
	}
}

func TestValidate(t *testing.T) {
	bad := []Plan{
		{ReadFaultProb: -0.1},
		{ReadFaultProb: 1},
		{ReadFaultProb: 1.5},
		{MaxConsecutiveFaults: -1},
		{MaxRetries: -2},
		{RankFailures: []RankFailure{{Rank: -1}}},
		{PEStalls: []PEStall{{PE: -3}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d validated: %+v", i, p)
		}
	}
	if err := (Plan{ReadFaultProb: 0.999, Seed: 3}).Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestReadFaultDeterminismAndRate(t *testing.T) {
	const n = 200000
	draw := func(seed uint64) (pattern []bool, faults int) {
		inj, err := NewInjector(Plan{Seed: seed, ReadFaultProb: 0.05}, 1)
		if err != nil {
			t.Fatal(err)
		}
		pattern = make([]bool, n)
		for i := range pattern {
			pattern[i] = inj.ReadFault()
			if pattern[i] {
				faults++
			}
		}
		return pattern, faults
	}
	p1, f1 := draw(7)
	p2, f2 := draw(7)
	if f1 != f2 {
		t.Fatalf("same seed drew %d vs %d faults", f1, f2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	rate := float64(f1) / n
	if math.Abs(rate-0.05) > 0.01 {
		t.Fatalf("fault rate %.4f far from 0.05", rate)
	}
	_, f3 := draw(8)
	if f3 == f1 {
		t.Fatalf("different seeds drew identical fault counts %d (suspicious)", f1)
	}
}

func TestConsecutiveFaultCap(t *testing.T) {
	// Probability just under 1: without the cap every draw would fault.
	inj, err := NewInjector(Plan{Seed: 1, ReadFaultProb: 0.999999, MaxConsecutiveFaults: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	streak := 0
	for i := 0; i < 10000; i++ {
		if inj.ReadFault() {
			streak++
			if streak > 2 {
				t.Fatalf("streak of %d exceeds cap 2 at draw %d", streak, i)
			}
		} else {
			streak = 0
		}
	}
}

func TestPEStallAccumulates(t *testing.T) {
	inj, err := NewInjector(Plan{PEStalls: []PEStall{{PE: 4, Extra: 10}, {PE: 4, Extra: 5}, {PE: 9, Extra: 1}}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := inj.PEStall(4); got != 15 {
		t.Fatalf("PEStall(4) = %d, want 15", got)
	}
	if got := inj.PEStall(9); got != 1 {
		t.Fatalf("PEStall(9) = %d, want 1", got)
	}
	if got := inj.PEStall(0); got != 0 {
		t.Fatalf("PEStall(0) = %d, want 0", got)
	}
}

func TestBackoffAt(t *testing.T) {
	p := Plan{RetryBackoff: 10}
	want := []sim.MemCycle{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := p.BackoffAt(i + 1); got != w {
			t.Fatalf("BackoffAt(%d) = %d, want %d", i+1, got, w)
		}
	}
	var d Plan
	if d.Backoff() != DefaultRetryBackoff || d.Retries() != DefaultMaxRetries {
		t.Fatal("defaults not applied")
	}
}

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"",
		"rank=3@0",
		"rank=3@1000;rank=17@5;ecc=0.001;stall=5+200;seed=9",
		"  ecc=0.25 ; seed=42 ",
	}
	for _, spec := range specs {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		p2, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)): %v", spec, err)
		}
		if p.String() != p2.String() {
			t.Fatalf("round trip drift: %q vs %q", p.String(), p2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"bogus",
		"unknown=3",
		"rank=x@0",
		"rank=3",
		"ecc=nope",
		"ecc=1.5",
		"stall=5",
		"seed=abc",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestSentinelErrors(t *testing.T) {
	for _, e := range []error{ErrRankFailed, ErrInvariantViolated, ErrRetriesExhausted} {
		if !strings.HasPrefix(e.Error(), "fault: ") {
			t.Errorf("error %q lacks package prefix", e)
		}
	}
}

package energy

import (
	"math"
	"testing"
)

func TestValidate(t *testing.T) {
	if err := DDR4().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Model{
		{ActivatePJ: 0, BurstPJ: 1},
		{ActivatePJ: 1, BurstPJ: 0},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestDynamicPJ(t *testing.T) {
	m := Model{ActivatePJ: 100, BurstPJ: 10}
	c := Counts{Activates: 2, Bursts: 5}
	if got := m.DynamicPJ(c); got != 250 {
		t.Fatalf("DynamicPJ = %v", got)
	}
}

func TestSavings(t *testing.T) {
	m := DDR4()
	base := Counts{Activates: 100, Bursts: 800}
	opt := Counts{Activates: 50, Bursts: 400}
	if got := m.Savings(base, opt); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("Savings = %v, want 0.5", got)
	}
	if got := m.Savings(Counts{}, opt); got != 0 {
		t.Fatalf("Savings from zero baseline = %v", got)
	}
}

func TestAccessSavingsPaperShape(t *testing.T) {
	// Fig. 15: the larger the batch, the larger the savings; exact values
	// are 34/43/58 % for the paper's traces.
	if got := AccessSavings(128, 84); math.Abs(got-0.34) > 0.005 {
		t.Fatalf("savings = %v", got)
	}
	if AccessSavings(0, 0) != 0 {
		t.Fatal("zero-access savings not zero")
	}
	if AccessSavings(100, 100) != 0 {
		t.Fatal("no-dedup savings not zero")
	}
}

func TestAcceleratorPJ(t *testing.T) {
	// 100 mW for 1 s (200e6 PE cycles) = 0.1 J = 1e11 pJ.
	if got := AcceleratorPJ(100, 200e6); math.Abs(got-1e11) > 1 {
		t.Fatalf("AcceleratorPJ = %v", got)
	}
	if AcceleratorPJ(0, 100) != 0 || AcceleratorPJ(100, 0) != 0 {
		t.Fatal("degenerate inputs should yield zero")
	}
}

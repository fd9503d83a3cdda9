package sim

import (
	"math/rand"
	"testing"
)

func TestMax(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 || Max(4, 4) != 4 {
		t.Fatal("Max wrong")
	}
	if Max(MaxCycle, 0) != MaxCycle {
		t.Fatal("MaxCycle is not the latest cycle")
	}
}

func TestSeconds(t *testing.T) {
	if got := Seconds(200e6, 200); got != 1 {
		t.Fatalf("Seconds = %v, want 1", got)
	}
	if got := Seconds(0, 1200); got != 0 {
		t.Fatalf("Seconds(0) = %v, want 0", got)
	}
}

func TestRescale(t *testing.T) {
	cases := []struct {
		d        Cycle
		from, to float64
		want     Cycle
	}{
		{0, 1200, 200, 0},
		{6, 1200, 200, 1},     // an exact multiple
		{600, 1200, 200, 100}, // a larger one
		{1, 1200, 200, 1},     // anything past a boundary rounds up
		{7, 1200, 200, 2},
		{601, 1200, 200, 101},
		{5, 1200, 1200, 5}, // equal clocks: identity
		// Ratio < 1 (a slower source clock; no engine configures one): the
		// formula lands on (d-1)/ratio + 1, short of the true ceiling d/ratio.
		// Pinned as it is, because every simulated number depends on it.
		{3, 600, 1200, 5},
		{3, 200, 1200, 13},
	}
	for _, c := range cases {
		if got := Rescale(c.d, c.from, c.to); got != c.want {
			t.Errorf("Rescale(%d, %v, %v) = %d, want %d", c.d, c.from, c.to, got, c.want)
		}
	}
}

// Rescale is the formula fafnir.Config.DRAMToPE, cpu.Config.DRAMToHost,
// twostep's toPE and the recnmp and tensordimm closures each wrote out
// before it existed; at the two clock pairs the repository configures it
// returns what they returned, value for value.
func TestRescaleMatchesOldFormula(t *testing.T) {
	old := func(d Cycle, dramMHz, clockMHz float64) Cycle {
		ratio := dramMHz / clockMHz
		return Cycle((float64(d) + ratio - 1) / ratio)
	}
	rng := rand.New(rand.NewSource(24))
	for _, clock := range []float64{200, 1200} {
		for i := 0; i < 10_000; i++ {
			d := Cycle(rng.Int63n(1 << uint(1+rng.Intn(40))))
			if got, want := Rescale(d, 1200, clock), old(d, 1200, clock); got != want {
				t.Fatalf("Rescale(%d, 1200, %v) = %d, the old formula gave %d", d, clock, got, want)
			}
		}
	}
}

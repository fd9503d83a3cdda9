package sim

import "testing"

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

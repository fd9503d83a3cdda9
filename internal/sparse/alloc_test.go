//go:build !race

package sparse

import (
	"math/rand"
	"testing"
)

// The flat backing makes a matrix cost a fixed number of allocations — the
// sort's three scratch arrays, the two backings, the two row tables and the
// matrix itself — however many rows it has. Measured: 9.
func TestFromCOOAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{64, 4096} {
		coo := toShuffledCOO(Banded(n, 3, 1), rng)
		got := testing.AllocsPerRun(5, func() {
			if _, err := FromCOO(coo); err != nil {
				t.Fatal(err)
			}
		})
		if got > 12 {
			t.Errorf("FromCOO of %d rows: %v allocations, budget 12 whatever the row count", n, got)
		}
	}
}

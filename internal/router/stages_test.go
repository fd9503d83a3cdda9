package router

import (
	"testing"

	"fafnir/internal/fault"
	"fafnir/internal/tensor"
)

// The Stages attribution contract — Stages.Sum() == TotalCycles exactly —
// must hold on every fleet configuration: the default radix, an explicit
// one, and both under failover.
func TestFleetStagesSumToTotal(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"default-radix", nil},
		{"rnet", func(c *Config) { c.Rnet.Radix = 2 }},
		{"faulted", func(c *Config) {
			c.Fleet.ShardFailures = []fault.ShardFailure{{Shard: 1, At: 1}}
		}},
		{"rnet-faulted", func(c *Config) {
			c.Rnet.Radix = 2
			c.Fleet.ShardFailures = []fault.ShardFailure{{Shard: 1, At: 1}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := testFleet(t, tc.mut)
			// Two rounds so the faulted cases cover both the batch that trips
			// the failure and a steady-state degraded batch.
			for round := 0; round < 2; round++ {
				res, err := f.Lookup(testBatch(t, f, 32, int64(round+7), tensor.OpSum))
				if err != nil {
					t.Fatal(err)
				}
				if res.TotalCycles == 0 {
					t.Fatal("zero-cycle lookup")
				}
				if got := res.Stages.Sum(); got != res.TotalCycles {
					t.Fatalf("round %d: Stages.Sum() = %d, TotalCycles = %d (stages %+v)",
						round, got, res.TotalCycles, res.Stages)
				}
			}
		})
	}
}

func TestFederationStagesSumToTotal(t *testing.T) {
	for _, radix := range []int{0, 2} {
		fd := testFederation(t, func(c *FederationConfig) { c.Rnet.Radix = radix })
		b, err := fd.GenerateBatch(24, 11)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fd.Lookup(b)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalCycles == 0 {
			t.Fatal("zero-cycle lookup")
		}
		if got := res.Stages.Sum(); got != res.TotalCycles {
			t.Fatalf("radix %d: Stages.Sum() = %d, TotalCycles = %d (stages %+v)",
				radix, got, res.TotalCycles, res.Stages)
		}
	}
}

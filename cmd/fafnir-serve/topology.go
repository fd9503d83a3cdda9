package main

import (
	"flag"
	"fmt"

	"fafnir"
)

// tables is the embedding-table count of a single System; a fleet's flat
// index space mirrors it, so every shape serves -rows x tables vectors.
const tables = 32

// maxRows bounds -rows so the tables' vectors fit the 32-bit index space.
const maxRows = 1 << 32 / tables

// topology is the deployment the shape flags describe: one System, a Fleet
// of -shards systems behind the fault-tolerant router, or a Federation of
// -fleets such fleets. Ranks split evenly across each fleet's shards.
type topology struct {
	ranks, rows, batch, par int
	shards, fleets, radix   int
	seed                    int64
	faults                  string
}

// register binds the shape flags (and the simulator knobs every shape
// shares) to t.
func (t *topology) register(fs *flag.FlagSet) {
	fs.IntVar(&t.ranks, "ranks", 32, "memory ranks (split evenly across the shards of a fleet)")
	fs.IntVar(&t.rows, "rows", 1<<17, "rows per embedding table (32 tables)")
	fs.IntVar(&t.batch, "batch", 32, "hardware batch capacity in queries")
	fs.IntVar(&t.shards, "shards", 1, "shard count; >1 serves through the fault-tolerant fleet router")
	fs.IntVar(&t.fleets, "fleets", 1, "fleet count; >1 serves a multi-fleet federation of -shards-wide fleets")
	fs.IntVar(&t.radix, "radix", 0, "fleet router only: fan-in of the rnet switch trees that combine shard (and fleet) partials (0 = default 2)")
	fs.StringVar(&t.faults, "faults", "", `fault plan, e.g. "rank=3@0;ecc=0.001;seed=9"; the fleet router also takes shard/flap/storm/swstall clauses, e.g. "shard=1@40000;seed=7"`)
	fs.Int64Var(&t.seed, "seed", 1, "table-content seed")
	fs.IntVar(&t.par, "j", 0, "simulator parallelism (0 = all cores)")
}

// fleet reports whether the shape needs the fleet router. Only the shard
// and fleet counts decide it.
func (t topology) fleet() bool { return t.shards > 1 || t.fleets > 1 }

// validate holds every cross-flag rule: an unusable shape is an error naming
// the flag before any constructor runs.
func (t topology) validate() error {
	for _, f := range []struct {
		name       string
		value, min int
	}{{"ranks", t.ranks, 1}, {"rows", t.rows, 1}, {"batch", t.batch, 1}, {"shards", t.shards, 1}, {"fleets", t.fleets, 1}, {"j", t.par, 0}} {
		if f.value < f.min {
			return fmt.Errorf("-%s must be at least %d, got %d", f.name, f.min, f.value)
		}
	}
	switch {
	case t.rows > maxRows:
		return fmt.Errorf("-rows %d: %d tables of it overflow the 32-bit index space (at most %d)", t.rows, tables, maxRows)
	case t.ranks%t.shards != 0 || t.ranks/t.shards%2 != 0:
		return fmt.Errorf("-ranks %d must split into -shards %d equal, even rank counts", t.ranks, t.shards)
	case t.radix < 0 || t.radix == 1:
		return fmt.Errorf("-radix %d: want 0 (the default of 2) or >= 2", t.radix)
	case t.radix != 0 && !t.fleet():
		return fmt.Errorf("-radix shapes the fleet router's combine trees: it needs -shards > 1 or -fleets > 1")
	case uint64(t.fleets) > tables*uint64(t.rows)/uint64(t.shards):
		return fmt.Errorf("-rows %d: too few vectors for each of -fleets %d x -shards %d to own one", t.rows, t.fleets, t.shards)
	}
	return nil
}

// build constructs the shape's one serving backend. -faults is parsed in
// the shape's grammar: fault.Parse's on a single system, fault.ParseFleet's
// superset (shard loss, flaps, storms, switch stalls) on the fleet router.
func (t topology) build() (fafnir.ServeBackend, error) {
	if !t.fleet() {
		plan, err := fafnir.ParseFaultPlan(t.faults)
		if err != nil {
			return nil, fmt.Errorf("-faults: %w", err)
		}
		return fafnir.NewSystem(fafnir.SystemConfig{
			Ranks:         t.ranks,
			RowsPerTable:  t.rows,
			BatchCapacity: t.batch,
			Seed:          t.seed,
			Parallelism:   t.par,
			Faults:        plan,
		})
	}
	plan, err := fafnir.ParseFleetFaultPlan(t.faults)
	if err != nil {
		return nil, fmt.Errorf("-faults: %w", err)
	}
	fleet := fafnir.FleetConfig{
		Shards:        t.shards,
		RanksPerShard: t.ranks / t.shards,
		BatchCapacity: t.batch,
		Rows:          uint64(t.rows) * tables,
		Seed:          t.seed,
		Parallelism:   t.par,
		Fleet:         plan,
		Rnet:          fafnir.RnetConfig{Radix: t.radix},
	}
	if t.fleets == 1 {
		return fafnir.NewFleet(fleet)
	}
	return fafnir.NewFederation(fafnir.FederationConfig{Fleets: t.fleets, Fleet: fleet})
}

package main

import (
	"math"
	"math/rand"
	"time"

	"fafnir"
)

// embed_direct: the paper's core path with no serving code at all.

const (
	embedBatchQueries = 256 // queries per System.Lookup
	hwBatchQueries    = 32  // the engine's hardware batch capacity B
)

var embedDirect = workload{
	name: "embed_direct",
	op:   "one System.Lookup of 256 queries x 16 indices (8 hardware batches)",
	item: "query",
	why:  "The paper's core path with no serving code: batch, fafnir, header, tensor, dram and memmap do all the work, on hardware batches that alternate Zipf-shared and uniform-unique indices.",
	setup: func(seed int64, quick bool) (instance, error) {
		sys, err := fafnir.NewSystem(fafnir.SystemConfig{})
		if err != nil {
			return nil, err
		}
		pool := 16
		if quick {
			pool = 2
		}
		rng := rand.New(rand.NewSource(seed))
		d := newDigest()
		// Every 256-query batch interleaves Zipf and uniform hardware
		// batches, so each operation carries the same mix and the median
		// does not sit in a gap between two kinds of operation.
		draws := []indexDraw{zipfDraw(rng), uniformDraw(rng, sys.TotalRows())}
		e := &embedInst{sys: sys}
		for b := 0; b < pool; b++ {
			var qs [][]uint32
			for hw := 0; hw < embedBatchQueries/hwBatchQueries; hw++ {
				part := drawQueries(draws[hw%2], hwBatchQueries, d)
				e.hw = append(e.hw, drillBatch{batch: sumBatch(part), shared: hw%2 == 0})
				qs = append(qs, part...)
			}
			batch := sumBatch(qs)
			golden, err := sys.Golden(batch)
			if err != nil {
				return nil, err
			}
			e.pool = append(e.pool, batch)
			e.golden = append(e.golden, golden)
		}
		e.info = inputInfo{SHA256: d.sum(), Seed: seed, Clients: 1,
			Counts: map[string]int{"batches": pool, "queries_per_batch": embedBatchQueries, "indices_per_query": querySize}}
		return e, nil
	},
}

type embedInst struct {
	info   inputInfo
	sys    *fafnir.System
	pool   []fafnir.Batch
	golden [][]fafnir.Vector
	hw     []drillBatch // the pool cut into hardware batches, for the drills
}

func (e *embedInst) inputs() inputInfo { return e.info }
func (e *embedInst) clients() int      { return 1 }
func (e *embedInst) period() int       { return 1 }
func (e *embedInst) close() error      { return nil }

// lookup is the timed operation: the library user's loop body.
func (e *embedInst) lookup(k int) (*fafnir.LookupResult, time.Duration, error) {
	e.sys.ResetMemory()
	t0 := time.Now()
	res, err := e.sys.Lookup(e.pool[k])
	return res, time.Since(t0), err
}

func (e *embedInst) check(k int, res *fafnir.LookupResult) error {
	if res.Stages.Sum() != res.TotalCycles {
		return checkf("embed_direct batch %d: stages sum %d != total cycles %d", k, res.Stages.Sum(), res.TotalCycles)
	}
	return sameVectors("embed_direct", res.Outputs, e.golden[k])
}

func (e *embedInst) run(_, i int, _ bool, tr *tracer) (time.Duration, float64, error) {
	k := i % len(e.pool)
	start := time.Now()
	res, dur, err := e.lookup(k)
	if err != nil {
		return 0, 0, err
	}
	if tr != nil {
		tr.span("op", laneOp, start, dur, tr.nextID(), 0)
	}
	return dur, embedBatchQueries, e.check(k, res)
}

func (e *embedInst) simulated(_ *tracer) (*simStats, error) {
	s := &simStats{}
	for k := range e.pool {
		res, _, err := e.lookup(k)
		if err == nil {
			err = e.check(k, res)
		}
		s.ops++
		if err != nil {
			s.failed++
			s.errs = append(s.errs, err.Error())
			continue
		}
		s.items += embedBatchQueries
		s.cycles += float64(res.TotalCycles)
		s.reads += float64(res.MemoryReads)
	}
	return s, nil
}

func (e *embedInst) drills(_ []float64, out metrics) error {
	return embeddingDrills(e.hw, out)
}

// sameVectors compares outputs with the oracle bit for bit; the stores hold
// integer-valued float32, so pooled sums are exact in any order.
func sameVectors(what string, got, want []fafnir.Vector) error {
	if len(got) != len(want) {
		return checkf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for q := range want {
		if len(got[q]) != len(want[q]) {
			return checkf("%s: output %d has %d elements, want %d", what, q, len(got[q]), len(want[q]))
		}
		for j := range want[q] {
			if math.Float32bits(got[q][j]) != math.Float32bits(want[q][j]) {
				return checkf("%s: output %d element %d is %v, want %v", what, q, j, got[q][j], want[q][j])
			}
		}
	}
	return nil
}

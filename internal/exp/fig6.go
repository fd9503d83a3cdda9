package exp

import (
	"fmt"

	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	"fafnir/internal/fafnir"
	"fafnir/internal/header"
	"fafnir/internal/telemetry"
	"fafnir/internal/tensor"
)

func init() {
	register("fig6", Fig6)
}

// fig6Tables is Fig. 6's placement: index "rt" (row digit, table digit) lives
// in the rank of its table digit, one table per rank.
type fig6Tables struct{}

func (fig6Tables) Rank(idx header.Index) int       { return int(idx) % 10 }
func (fig6Tables) Addr(idx header.Index) dram.Addr { return dram.Addr(idx) * 16 }
func (fig6Tables) VectorBytes() int                { return 16 }

// Fig6 reproduces the paper's worked batch-processing example: four queries
// over eight tables, compiled to unique accesses and pushed through a
// three-level tree as one hardware batch, reporting each PE's reduce/forward/
// merge activity from the engine's trace. The engine checks every root output
// against the golden fold of the rows it read, so a run that returns is
// verified.
func Fig6() (*Report, error) {
	b := embedding.Batch{
		Queries: []embedding.Query{
			{Indices: header.NewIndexSet(11, 44, 32, 83, 77)}, // a
			{Indices: header.NewIndexSet(50, 32, 83, 26)},     // b
			{Indices: header.NewIndexSet(50, 44, 11, 94, 26)}, // c
			{Indices: header.NewIndexSet(83, 77)},             // d
		},
		Op: tensor.OpSum,
	}
	cfg := fafnir.Default()
	cfg.NumRanks = 8
	cfg.BatchCapacity = 4
	cfg.VectorDim = 4
	eng, err := fafnir.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	trace := telemetry.NewTrace()
	eng.AttachTracer(trace)
	res, err := eng.TimedLookup(embedding.MustStore(100, 4, 77), fig6Tables{}, dram.MustSystem(dram.DDR4()), b, true)
	if err != nil {
		return nil, err
	}

	// One hardware batch: every PE emits one pe.stage span, and one pe.merge
	// instant when its merge unit folded anything.
	stats := make([]map[string]int, eng.Tree().NumPEs())
	for _, ev := range trace.Events() {
		if ev.Name != "pe.stage" && ev.Name != "pe.merge" {
			continue
		}
		if stats[ev.TID] == nil {
			stats[ev.TID] = map[string]int{}
		}
		for _, a := range ev.Args[:ev.NArgs] {
			stats[ev.TID][a.Key] = int(a.Int)
		}
	}

	rep := &Report{
		ID:     "fig6",
		Title:  "the paper's batch-processing example, per-PE activity",
		Header: []string{"PE", "level", "reduces", "forwards", "merged", "outputs"},
	}
	var postOrder func(n *fafnir.PENode)
	postOrder = func(n *fafnir.PENode) {
		if n == nil {
			return
		}
		postOrder(n.Left)
		postOrder(n.Right)
		st := stats[n.ID]
		rep.AddRow(fmt.Sprintf("PE%d", n.ID), itoa(n.Level),
			itoa(st["reduces"]), itoa(st["forwards"]), itoa(st["merged"]), itoa(st["outputs"]))
	}
	postOrder(eng.Tree().Root())

	raw := b.TotalAccesses()
	rep.AddNote("host rearrangement: %d raw accesses -> %d unique (%.0f%% saved)",
		raw, res.MemoryReads, 100*(1-float64(res.MemoryReads)/float64(raw)))
	rep.AddNote("all four query outputs verified against the golden reference")
	rep.AddNote("queries a-d include the same-rank pair (44, 94) and the shared (32, 83) value")
	return rep, nil
}

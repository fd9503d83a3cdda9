// Command fafnir-trace generates, inspects, and replays embedding-lookup
// workloads in the JSONL request format of internal/trace — the file
// fafnir-loadgen -record writes and -replay reads, so a capture can be fed
// to stats and run, and a generated file to -replay.
//
// Examples:
//
//	fafnir-trace gen -n 64 -q 16 -zipf 1.3 -out workload.jsonl
//	fafnir-trace stats workload.jsonl
//	fafnir-trace run -engine fafnir workload.jsonl
//	fafnir-trace run -engine recnmp workload.jsonl
//	fafnir-trace validate run-trace.json   # checks a fafnir-sim -trace-out file
//	fafnir-trace report run-trace.json     # critical-path latency attribution
package main

import (
	"flag"
	"fmt"
	"os"

	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/memmap"
	"fafnir/internal/recnmp"
	"fafnir/internal/sim"
	"fafnir/internal/telemetry"
	"fafnir/internal/tensor"
	"fafnir/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		fail(fmt.Errorf("usage: fafnir-trace gen|stats|run|validate|report ..."))
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fafnir-trace:", err)
	os.Exit(1)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var (
		n    = fs.Int("n", 32, "number of queries")
		q    = fs.Int("q", 16, "indices per query")
		rows = fs.Uint64("rows", 1<<22, "index space")
		zipf = fs.Float64("zipf", 1.3, "Zipf skew (<=1 for uniform)")
		seed = fs.Int64("seed", 1, "generator seed")
		out  = fs.String("out", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	gcfg := embedding.GeneratorConfig{NumQueries: *n, QuerySize: *q, Rows: *rows, Seed: *seed}
	if *zipf > 1 {
		gcfg.Dist = embedding.Zipf
		gcfg.ZipfS = *zipf
	}
	gen, err := embedding.NewGenerator(gcfg)
	if err != nil {
		return err
	}
	w := trace.FromBatch(gen.Batch(tensor.OpSum))
	if *out == "" {
		return trace.Save(os.Stdout, w)
	}
	return trace.SaveFile(*out, w)
}

func cmdStats(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: fafnir-trace stats <file>")
	}
	w, err := trace.LoadFile(args[0])
	if err != nil {
		return err
	}
	s, err := w.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("queries:         %d\n", s.NumQueries)
	fmt.Printf("total accesses:  %d\n", s.TotalAccesses)
	fmt.Printf("unique indices:  %d (%.1f%%)\n", s.UniqueIndices, 100*s.UniqueFraction)
	fmt.Printf("max query size:  %d\n", s.MaxQuerySize)
	fmt.Printf("pooling op:      %s\n", s.Op)
	return nil
}

// cmdValidate checks a Chrome trace-event file (as written by
// fafnir-sim -trace-out) for structural validity: well-formed JSON, known
// event phases, and non-decreasing timestamps within every (pid, tid) lane.
func cmdValidate(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: fafnir-trace validate <chrome-trace.json>")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	n, err := telemetry.ValidateChrome(data)
	if err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	fmt.Printf("%s: valid Chrome trace, %d events\n", args[0], n)
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	engine := fs.String("engine", "fafnir", "fafnir or recnmp")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: fafnir-trace run [-engine X] <file>")
	}
	w, err := trace.LoadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	b, rows, err := w.Batch()
	if err != nil {
		return err
	}

	mcfg := dram.DDR4()
	rowsPer := int((rows + 31) / 32)
	layout := memmap.Uniform(mcfg, 512, 32, rowsPer)
	store := embedding.MustStore(layout.TotalRows(), 128, 1)
	mem := dram.MustSystem(mcfg)

	us := func(c sim.Cycle) float64 { return sim.Seconds(c) * 1e6 }
	switch *engine {
	case "fafnir":
		eng, err := core.NewEngine(core.Default())
		if err != nil {
			return err
		}
		res, err := eng.TimedLookup(store, layout, mem, b, true)
		if err != nil {
			return err
		}
		fmt.Printf("fafnir: %d queries in %.2f us (%d unique reads, %d hardware batches)\n",
			b.NumQueries(), us(res.TotalCycles), res.MemoryReads, res.HWBatches)
	case "recnmp":
		eng, err := recnmp.NewEngine(recnmp.Default())
		if err != nil {
			return err
		}
		res, err := eng.TimedLookup(store, layout, mem, b)
		if err != nil {
			return err
		}
		fmt.Printf("recnmp: %d queries in %.2f us (NDP fraction %.0f%%, %d raw forwards)\n",
			b.NumQueries(), us(res.TotalCycles), 100*res.NDPFraction(), res.ForwardedRaw)
	default:
		return fmt.Errorf("unknown engine %q", *engine)
	}
	return nil
}

package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"fafnir/internal/serve"
)

func TestGeneratorsRepeatPerSeed(t *testing.T) {
	for _, w := range workloads {
		digest := func(seed int64) string {
			inst, err := w.setup(seed, true)
			if err != nil {
				t.Fatalf("%s: set-up: %v", w.name, err)
			}
			defer inst.close()
			return inst.inputs().SHA256
		}
		a, b, c := digest(1), digest(1), digest(2)
		if a != b {
			t.Errorf("%s: seed 1 generated two different inputs (%s, %s)", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", w.name)
		}
	}
}

// The digests of seed 1 are pinned: a change to a generator, or to a program
// generator a workload builds matrices with, changes what every earlier
// result file measured and must be deliberate.
func TestDigestsOfSeedOneArePinned(t *testing.T) {
	want := map[string]string{
		"embed_direct": "ca7fcac61c023116",
		"serve_hot":    "51a38ed70ea4b3a0",
		"serve_cold":   "2a65cd66619e2424",
	}
	if numClients() != 2 {
		t.Skip("serving digests cover one stream per client; pinned for 2 clients")
	}
	for name, prefix := range want {
		inst, err := findWorkload(name).setup(1, false)
		if err != nil {
			t.Fatal(err)
		}
		got := inst.inputs().SHA256
		inst.close()
		if !strings.HasPrefix(got, prefix) {
			t.Errorf("%s: seed 1 digest %.16s, pinned %s", name, got, prefix)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{16, 1, 4, 2, 8}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9 (nearest rank)", got)
	}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5 (nearest rank)", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for n, want := range map[int]float64{5: 0, 20: 50, 40: 75, 100: 90, 200: 95, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

// The calmer half of the rounds is chosen by steal alone, keeps ties, and
// keeps everything where steal is not reported (all zero).
func TestCalmest(t *testing.T) {
	for _, tc := range []struct {
		stolen []float64
		want   []bool
	}{
		{nil, []bool{}},
		{[]float64{0.3}, []bool{true}},
		{[]float64{0.4, 0, 0.2, 0.01, 0.3}, []bool{false, true, true, true, false}},
		{[]float64{0.4, 0, 0.2, 0.01}, []bool{false, true, false, true}},
		{[]float64{0, 0.2, 0, 0, 0}, []bool{true, false, true, true, true}},
		{[]float64{0, 0, 0, 0}, []bool{true, true, true, true}},
	} {
		if got := calmest(tc.stolen); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("calmest(%v) = %v, want %v", tc.stolen, got, tc.want)
		}
	}
	rs := []round{{ops: 1, stolen: 0.5}, {ops: 2}, {ops: 3, stolen: 0.1}}
	if kept := calmRounds(rs); len(kept) != 2 || kept[0].ops != 2 || kept[1].ops != 3 {
		t.Errorf("calmRounds kept %+v, want the rounds with 2 and 3 operations", kept)
	}
	if _, ok := stolenTime(); !ok && runtime.GOOS == "linux" {
		t.Error("no steal reading from /proc/stat on Linux")
	}
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with: go run . -spec > ../BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(m.name)
	}
}

// A quick run of every workload emits every metric of the contract and no
// other, fails no check, and writes a trace that validates.
func TestQuickRunEmitsTheContract(t *testing.T) {
	dir := t.TempDir()
	o := options{workload: "all", seed: 1, seconds: 1, trace: "both", quick: true,
		out: filepath.Join(dir, "r.json"), traceOut: filepath.Join(dir, "t.json")}
	res, err := runAll(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("%d workloads ran, want %d", len(res.Workloads), len(workloads))
	}
	for _, wr := range res.Workloads {
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", wr.Name, wr.Failed, wr.Attempted, wr.Errors)
		}
		if len(wr.EndToEnd) != len(endToEnd) || len(wr.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, want %d and %d",
				wr.Name, len(wr.EndToEnd), len(wr.PerLayer), len(endToEnd), len(perLayer))
		}
		for _, def := range endToEnd {
			if m := wr.EndToEnd[def.name]; m == nil || m.Value <= 0 || m.Unit != def.unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", wr.Name, def.name, m, def.unit)
			}
		}
		for _, def := range perLayer {
			if m := wr.PerLayer[def.name]; m == nil || m.Unit != def.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v", wr.Name, def.name, m)
			}
		}
		if v := wr.PerLayer["fafnir.stage_sum_violations"].Value + wr.PerLayer["runtime.goroutines_leaked"].Value; v != 0 {
			t.Errorf("%s: stage-sum violations plus leaked goroutines = %v, want 0", wr.Name, v)
		}
	}
	if res.TraceEvents == 0 {
		t.Error("the traced pass recorded no spans")
	}
	if err := res.write(o.out); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	ok, err := compareFiles(&out, o.out, o.out)
	if err != nil || !ok {
		t.Errorf("a one-round result file does not compare clean with itself: ok=%v err=%v\n%s", ok, err, out.String())
	}
	sum := res.summary()
	if !sum.Correct || len(sum.Metrics) != len(workloads)*(len(endToEnd)+len(perLayer)) {
		t.Errorf("summary: correct=%v with %d metrics", sum.Correct, len(sum.Metrics))
	}
}

// The timing shims must offer the serving layer exactly the optional
// capabilities of the backends they wrap, or the server behaves differently
// under the benchmark than in production.
func TestShimsForwardEveryCapability(t *testing.T) {
	type caps struct{ rows, owner, registrar, attacher, spanner, memory, topology bool }
	probe := func(b any) caps {
		var c caps
		_, c.rows = b.(serve.RowSource)
		_, c.owner = b.(serve.ShardOwner)
		_, c.registrar = b.(serve.MetricsRegistrar)
		_, c.attacher = b.(serve.TraceAttacher)
		_, c.spanner = b.(serve.SpanContexter)
		_, c.memory = b.(serve.MemoryStatsSource)
		_, c.topology = b.(serve.TopologyDescriber)
		return c
	}
	sys := systemBackend{spans: &lookupSpans{}}
	if got, want := probe(sys), probe(sys.System); got != want {
		t.Errorf("system shim offers %+v, the system %+v", got, want)
	}
	if !probe(sys).rows || probe(sys).owner {
		t.Errorf("system capabilities %+v: want RowSource, no ShardOwner", probe(sys))
	}
	fed := federationBackend{spans: &lookupSpans{}}
	if got, want := probe(fed), probe(fed.Federation); got != want {
		t.Errorf("federation shim offers %+v, the federation %+v", got, want)
	}
	if !probe(fed).owner || !probe(fed).registrar || !probe(fed).topology {
		t.Errorf("federation capabilities %+v: want ShardOwner, MetricsRegistrar, TopologyDescriber", probe(fed))
	}
	// The cache-on server builds over the shim (it needs RowSource).
	st, err := newStack(serveHot)
	if err != nil {
		t.Fatalf("cache-on server over the shim: %v", err)
	}
	if err := st.close(); err != nil {
		t.Error(err)
	}
}

func TestSerialPassRepeatsExactly(t *testing.T) {
	for _, name := range []string{"serve_hot", "serve_federation", "embed_direct", "spmv_iterate"} {
		inst, err := findWorkload(name).setup(1, true)
		if err != nil {
			t.Fatal(err)
		}
		a, err := inst.simulated(nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := inst.simulated(newTracer())
		if err != nil {
			t.Fatal(err)
		}
		inst.close()
		if a.failed+b.failed != 0 {
			t.Errorf("%s: failures in the deterministic pass: %v %v", name, a.errs, b.errs)
		}
		if a.cycles != b.cycles || a.reads != b.reads || a.items != b.items || a.cycles == 0 {
			t.Errorf("%s: two deterministic passes disagree: %v/%v/%v vs %v/%v/%v",
				name, a.cycles, a.reads, a.items, b.cycles, b.reads, b.items)
		}
	}
}

func TestCompareRefusesUnlikeRuns(t *testing.T) {
	mk := func() *result {
		return &result{Env: environment{NProc: 2, Clients: 2, Rounds: 5, RoundS: 2},
			Workloads: []*workloadResult{{Name: "w", Inputs: inputInfo{SHA256: strings.Repeat("a", 64)}}}}
	}
	a, b := mk(), mk()
	if err := likeForLike(a, b); err != nil {
		t.Errorf("equal environments refused: %v", err)
	}
	b.Env.NProc = 4
	if likeForLike(a, b) == nil {
		t.Error("different nproc accepted")
	}
	b = mk()
	b.Env.RoundS = 3
	if likeForLike(a, b) == nil {
		t.Error("different round length accepted")
	}
	b = mk()
	b.Workloads[0].Inputs.SHA256 = strings.Repeat("b", 64)
	if likeForLike(a, b) == nil {
		t.Error("different inputs accepted")
	}
}

func TestVerdict(t *testing.T) {
	host := metricDef{name: "op_p50_ms", better: "lower", bound: 0.10}
	rate := metricDef{name: "items_per_s", better: "higher", bound: 0.10}
	sim := metricDef{name: "sim_cycles_per_item", better: "lower", exact: true}
	m := func(v, spread float64, rounds ...float64) *measured {
		return &measured{Value: v, Spread: spread, Rounds: rounds}
	}
	for _, tc := range []struct {
		def  metricDef
		a, b *measured
		want string
	}{
		{host, m(1, 0.02), m(1.05, 0.02), "ok"},
		{host, m(1, 0.02), m(1.2, 0.02), "regressed"},
		{rate, m(100, 0.02), m(80, 0.02), "regressed"},
		{rate, m(100, 0.02), m(95, 0.02), "ok"},
		{host, m(1, 0.3, 0.8, 1, 1.2), m(1.05, 0.02, 1, 1.05, 1.1), "unresolved"},
		{host, m(1, 0.3, 0.9, 1, 1.2), m(0.5, 0.02, 0.4, 0.5, 0.6), "ok"},
		{sim, m(5, 0), m(5, 0), "ok"},
		{sim, m(5, 0), m(5.0001, 0), "regressed"},
	} {
		if got := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.def.name, tc.a.Value, tc.b.Value, got, tc.want)
		}
	}
}

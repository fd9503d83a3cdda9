package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryRenderOrderAndFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_total", "Things done.")
	v := r.CounterVec("app_outcomes_total", "By outcome.", "outcome", "ok", "error")
	g := r.Gauge("app_depth", "Queue depth.")
	r.GaugeFunc("app_ratio", "A computed ratio.", func() float64 { return 2.5 })
	h := r.Histogram("app_seconds", "Latency.", []float64{0.1, 1})

	c.Add(3)
	v.With("ok").Add(2)
	v.With("error").Add(1)
	g.Set(-4)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(7)

	var sb strings.Builder
	r.Render(&sb)
	want := `# HELP app_total Things done.
# TYPE app_total counter
app_total 3
# HELP app_outcomes_total By outcome.
# TYPE app_outcomes_total counter
app_outcomes_total{outcome="ok"} 2
app_outcomes_total{outcome="error"} 1
# HELP app_depth Queue depth.
# TYPE app_depth gauge
app_depth -4
# HELP app_ratio A computed ratio.
# TYPE app_ratio gauge
app_ratio 2.5
# HELP app_seconds Latency.
# TYPE app_seconds histogram
app_seconds_bucket{le="0.1"} 1
app_seconds_bucket{le="1"} 2
app_seconds_bucket{le="+Inf"} 3
app_seconds_sum 7.55
app_seconds_count 3
`
	if sb.String() != want {
		t.Fatalf("render mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "First.")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("dup_total", "Second.")
}

func TestCounterVecUnknownLabelDetached(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("v_total", "h", "k", "a")
	v.With("nope").Add(100)
	if v.With("a").Value() != 0 || v.At(0).Value() != 0 {
		t.Fatal("unknown label leaked into a registered counter")
	}
	var sb strings.Builder
	r.Render(&sb)
	if strings.Contains(sb.String(), "100") {
		t.Fatalf("detached counter rendered:\n%s", sb.String())
	}
}

func TestHistogramBoundaryInclusive(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(1) // le="1" is inclusive, Prometheus semantics
	h.Observe(2)
	got := h.BucketCounts()
	if got[0] != 1 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("BucketCounts = %v, want [1 1 0]", got)
	}
}

// HistogramVec rendering at the +Inf boundary: a sample exactly on the last
// finite bound stays out of +Inf's exclusive share, and the +Inf cumulative
// count always equals _count — per label value.
func TestHistogramVecRenderAtInfBoundary(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("stage_seconds", "Stage latency.", "stage", []float64{0.5, 1}, "queue", "backend")
	v.With("queue").Observe(1)   // exactly the last finite bound: counted in le="1", not +Inf overflow
	v.With("queue").Observe(1.5) // past every bound: +Inf only
	// "backend" stays empty: it must still render all buckets at zero.

	var sb strings.Builder
	r.Render(&sb)
	want := `# HELP stage_seconds Stage latency.
# TYPE stage_seconds histogram
stage_seconds_bucket{stage="queue",le="0.5"} 0
stage_seconds_bucket{stage="queue",le="1"} 1
stage_seconds_bucket{stage="queue",le="+Inf"} 2
stage_seconds_sum{stage="queue"} 2.5
stage_seconds_count{stage="queue"} 2
stage_seconds_bucket{stage="backend",le="0.5"} 0
stage_seconds_bucket{stage="backend",le="1"} 0
stage_seconds_bucket{stage="backend",le="+Inf"} 0
stage_seconds_sum{stage="backend"} 0
stage_seconds_count{stage="backend"} 0
`
	if sb.String() != want {
		t.Fatalf("render mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

func TestHistogramVecUnknownLabelDetached(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("h_seconds", "h", "k", []float64{1}, "a")
	v.With("nope").Observe(99)
	if v.With("a").Count() != 0 || v.At(0).Count() != 0 {
		t.Fatal("unknown label leaked into a registered histogram")
	}
}

func TestGaugeFuncVecRender(t *testing.T) {
	r := NewRegistry()
	r.GaugeFuncVec("burn_rate", "Burn.", "lane", func(lane string) float64 {
		if lane == "high" {
			return 1.5
		}
		return 0
	}, "high", "low")
	var sb strings.Builder
	r.Render(&sb)
	want := `# HELP burn_rate Burn.
# TYPE burn_rate gauge
burn_rate{lane="high"} 1.5
burn_rate{lane="low"} 0
`
	if sb.String() != want {
		t.Fatalf("render mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

func TestRegistryConcurrentHotPath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot_total", "h")
	h := r.Histogram("hot_seconds", "h", []float64{1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 || h.Sum() != 4000 {
		t.Fatalf("lost updates: counter %d, count %d, sum %v", c.Value(), h.Count(), h.Sum())
	}
}

// Every kind of family is the one generic Vec: an unknown label value hands
// back a detached metric that works and is never rendered, and the known
// ones are reached without allocating, by value or by index.
func TestVecDetachedUsableAndLookupsAllocFree(t *testing.T) {
	r := NewRegistry()
	g := r.GaugeVec("g_state", "h", "k", "a", "b")
	h := r.HistogramVec("h_seconds", "h", "k", []float64{1, 2}, "a", "b")
	g.With("nope").Set(77)
	h.With("nope").Observe(1.5)
	if got := h.With("nope").Bounds(); len(got) != 2 {
		t.Fatalf("detached histogram has bounds %v, want the family's", got)
	}
	var sb strings.Builder
	r.Render(&sb)
	if strings.Contains(sb.String(), "77") || strings.Contains(sb.String(), `k="nope"`) {
		t.Fatalf("detached metric rendered:\n%s", sb.String())
	}
	if n := testing.AllocsPerRun(100, func() {
		g.At(1).Set(3)
		g.With("b").Set(4)
		h.At(0).Observe(0.5)
		h.With("a").Observe(0.5)
	}); n != 0 {
		t.Fatalf("At/With on registered label values allocate %v times", n)
	}
}

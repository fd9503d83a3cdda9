package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// This file is the unified metrics registry: typed counters, gauges, and
// histograms that engines and the serving layer publish into, rendered in
// the Prometheus text exposition format. The hot path (Add/Set/Observe) is
// lock-free — plain atomics, no maps, no label parsing — because label sets
// are fixed at registration time. The registry mutex guards registration and
// the render walk only.
//
// Rendering is byte-compatible with the hand-rolled renderer it replaced
// (internal/serve/metrics.go before PR 5): families appear in registration
// order, floats format with strconv 'g', histograms emit cumulative buckets
// with an explicit +Inf bound followed by _sum and _count.

// Counter is a monotone atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the counter.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) write(w io.Writer, name, pair string) {
	sample(w, name, pair, strconv.FormatUint(c.Value(), 10))
}

// Gauge is an atomic instantaneous integer value.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) write(w io.Writer, name, pair string) {
	sample(w, name, pair, strconv.FormatInt(g.Value(), 10))
}

// gaugeFunc is a computed gauge: a float evaluated at render time.
type gaugeFunc func() float64

func (f *gaugeFunc) write(w io.Writer, name, pair string) {
	sample(w, name, pair, fmtFloat((*f)()))
}

// atomicFloat accumulates a float64 with compare-and-swap.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a fixed-bucket Prometheus histogram.
type Histogram struct {
	bounds []float64 // upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	sum    atomicFloat
	total  atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// Count reports the number of samples observed.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum reports the sum of all observed samples.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Bounds returns the bucket upper bounds (without the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts returns the raw (non-cumulative) per-bucket counts; the last
// element is the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// sample writes one exposition line: the series name, its label pairs in
// braces when it has any, and the value.
func sample(w io.Writer, name, pairs, value string) {
	if pairs != "" {
		pairs = "{" + pairs + "}"
	}
	fmt.Fprintf(w, "%s%s %s\n", name, pairs, value)
}

// write renders the histogram: cumulative buckets with an explicit +Inf
// bound, then _sum and _count.
func (h *Histogram) write(w io.Writer, name, pair string) {
	le := pair
	if le != "" {
		le += ","
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		sample(w, name+"_bucket", fmt.Sprintf("%sle=%q", le, fmtFloat(b)), strconv.FormatUint(cum, 10))
	}
	cum += h.counts[len(h.bounds)].Load()
	sample(w, name+"_bucket", le+`le="+Inf"`, strconv.FormatUint(cum, 10))
	sample(w, name+"_sum", pair, fmtFloat(h.Sum()))
	sample(w, name+"_count", pair, strconv.FormatUint(h.Count(), 10))
}

// Vec is a metric family: one metric of kind M per value of one label, the
// values fixed at registration, which keeps With lookups allocation-free and
// the render order stable. Every registered metric lives in one — a scalar is
// a family with no label and a single member — so there is one registration
// path and one renderer.
type Vec[M any] struct {
	name, help, kind, label string
	values                  []string
	metrics                 []*M
	// mk builds the member for a label value; write renders one member's
	// sample lines under the given `label="value"` pair ("" for a scalar).
	mk    func(value string) *M
	write func(m *M, w io.Writer, name, pair string)
}

// The labelled families engines and the serving layer publish into: the
// fleet router's per-shard health is a GaugeVec, the serving layer's
// per-stage latency a HistogramVec.
type (
	CounterVec   = Vec[Counter]
	GaugeVec     = Vec[Gauge]
	HistogramVec = Vec[Histogram]
)

// With returns the metric for the given label value. Unknown values return a
// detached metric (usable, never rendered) rather than panicking, so a
// miscounted label cannot take down a serving path.
func (v *Vec[M]) With(value string) *M {
	for i, val := range v.values {
		if val == value {
			return v.metrics[i]
		}
	}
	return v.mk(value)
}

// At returns the metric at the registration index of its label value;
// callers with dense label enums index directly instead of string-matching.
func (v *Vec[M]) At(i int) *M { return v.metrics[i] }

func (v *Vec[M]) famName() string { return v.name }

func (v *Vec[M]) render(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", v.name, v.help, v.name, v.kind)
	for i, m := range v.metrics {
		pair := ""
		if v.label != "" {
			pair = fmt.Sprintf("%s=%q", v.label, v.values[i])
		}
		v.write(m, w, v.name, pair)
	}
}

// renderable is one registered family.
type renderable interface {
	famName() string
	render(w io.Writer)
}

// Registry holds metric families and renders them in registration order.
type Registry struct {
	mu   sync.Mutex
	fams []renderable
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// register builds the family's members and appends it, rejecting duplicate
// names loudly: duplicate registration is a wiring bug reachable only from
// static setup code, so it panics rather than limping along with an invalid
// exposition.
func register[M any](r *Registry, v *Vec[M]) *Vec[M] {
	for _, val := range v.values {
		v.metrics = append(v.metrics, v.mk(val))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range r.fams {
		if g.famName() == v.name {
			panic(fmt.Sprintf("telemetry: metric %q registered twice", v.name))
		}
	}
	r.fams = append(r.fams, v)
	return v
}

// CounterVec registers a labelled counter family with the given fixed label
// values, rendered one line per value in the given order.
func (r *Registry) CounterVec(name, help, label string, values ...string) *CounterVec {
	return register(r, &CounterVec{name: name, help: help, kind: "counter", label: label, values: values,
		mk: func(string) *Counter { return new(Counter) }, write: (*Counter).write})
}

// GaugeVec registers a labelled integer gauge family with the given fixed
// label values, rendered one line per value in the given order.
func (r *Registry) GaugeVec(name, help, label string, values ...string) *GaugeVec {
	return register(r, &GaugeVec{name: name, help: help, kind: "gauge", label: label, values: values,
		mk: func(string) *Gauge { return new(Gauge) }, write: (*Gauge).write})
}

// GaugeFuncVec registers a labelled computed gauge family: fn is evaluated
// once per label value at render time and must be safe to call concurrently
// with the hot path. The SLO recorder publishes per-lane burn rates so.
func (r *Registry) GaugeFuncVec(name, help, label string, fn func(value string) float64, values ...string) {
	register(r, &Vec[gaugeFunc]{name: name, help: help, kind: "gauge", label: label, values: values,
		mk: func(value string) *gaugeFunc {
			f := gaugeFunc(func() float64 { return fn(value) })
			return &f
		}, write: (*gaugeFunc).write})
}

// HistogramVec registers a labelled histogram family: one histogram over the
// given bounds per fixed label value, rendered in the given order.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64, values ...string) *HistogramVec {
	return register(r, &HistogramVec{name: name, help: help, kind: "histogram", label: label, values: values,
		mk: func(string) *Histogram { return NewHistogram(bounds) }, write: (*Histogram).write})
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter { return r.CounterVec(name, help, "", "").At(0) }

// Gauge registers and returns an integer gauge.
func (r *Registry) Gauge(name, help string) *Gauge { return r.GaugeVec(name, help, "", "").At(0) }

// GaugeFunc registers a computed gauge: fn is evaluated at render time and
// must be safe to call concurrently with the hot path.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.GaugeFuncVec(name, help, "", func(string) float64 { return fn() }, "")
}

// Histogram registers and returns a histogram over the bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramVec(name, help, "", bounds, "").At(0)
}

// Render writes every family in Prometheus text exposition format, in
// registration order.
func (r *Registry) Render(w io.Writer) {
	r.mu.Lock()
	fams := make([]renderable, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	for _, f := range fams {
		f.render(w)
	}
}

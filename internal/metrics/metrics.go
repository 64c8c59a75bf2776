// Package metrics is a tiny, dependency-free instrumentation layer for
// the long-running analysis service: atomic counters and gauges,
// fixed-bucket latency histograms, and an ordered registry that renders
// the Prometheus text exposition format. It exists so the daemon's hot
// paths (worker pool, artifact cache, HTTP handlers) can record
// observations with a single atomic op and no allocation.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to
// use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default latency buckets (seconds), spanning the
// sub-millisecond invariant-store hits through multi-second static
// solves.
var DefBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Histogram is a fixed-bucket histogram of float64 observations
// (conventionally seconds). Observations are lock-free; rendering
// produces cumulative Prometheus-style buckets.
type Histogram struct {
	bounds []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram returns a histogram over the given bucket upper bounds
// (nil: DefBuckets). Bounds are sorted and deduplicated.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	uniq := bs[:0]
	for i, b := range bs {
		if i == 0 || b != bs[i-1] {
			uniq = append(uniq, b)
		}
	}
	return &Histogram{bounds: uniq, counts: make([]atomic.Uint64, len(uniq)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot returns cumulative bucket counts (one per bound, then +Inf).
func (h *Histogram) snapshot() []uint64 {
	out := make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// labeled pairs a label set rendered as `{k="v",...}` with a metric.
type labeled[T any] struct {
	labels string
	m      T
}

// labelSet renders `{k1="v1",k2="v2"}` for one child of a vec; a
// value-count mismatch is a programming error and panics.
func labelSet(labels, values []string) string {
	if len(values) != len(labels) {
		panic(fmt.Sprintf("metrics: %d label values for labels %v", len(values), labels))
	}
	var b []byte
	b = append(b, '{')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, fmt.Sprintf("%s=%q", l, values[i])...)
	}
	return string(append(b, '}'))
}

// childKey is the map key of one label-value tuple.
func childKey(values []string) string {
	key := ""
	for i, v := range values {
		if i > 0 {
			key += "\x00"
		}
		key += v
	}
	return key
}

// CounterVec is a counter family keyed by one or more labels. Children
// are created on first use and rendered in creation order.
type CounterVec struct {
	labels []string

	mu       sync.Mutex
	children map[string]*Counter
	order    []labeled[*Counter]
}

// NewCounterVec returns a counter family with the given label names.
func NewCounterVec(labels ...string) *CounterVec {
	return &CounterVec{labels: labels, children: map[string]*Counter{}}
}

// With returns the child counter for a label-value tuple (one value
// per label, in declaration order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	key := childKey(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		c = &Counter{}
		v.children[key] = c
		v.order = append(v.order, labeled[*Counter]{labels: labelSet(v.labels, values), m: c})
	}
	return c
}

// HistogramVec is a histogram family keyed by one or more labels.
// Children are created on first use and rendered in creation order.
type HistogramVec struct {
	labels []string
	bounds []float64

	mu       sync.Mutex
	children map[string]*Histogram
	order    []labeled[*Histogram]
}

// NewHistogramVec returns a histogram family with the given label
// names over DefBuckets.
func NewHistogramVec(labels ...string) *HistogramVec {
	return &HistogramVec{labels: labels, children: map[string]*Histogram{}}
}

// With returns the child histogram for a label-value tuple (one value
// per label, in declaration order), creating it on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	key := childKey(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[key]
	if !ok {
		h = NewHistogram(v.bounds...)
		v.children[key] = h
		v.order = append(v.order, labeled[*Histogram]{labels: labelSet(v.labels, values), m: h})
	}
	return h
}

// FloatGauge is a gauge holding a float64 (atomically, via its bits).
// The zero value is ready to use.
type FloatGauge struct {
	v atomic.Uint64
}

// Set replaces the value.
func (g *FloatGauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// Registry is an ordered collection of named metrics with a text
// exposition. A nil *Registry is valid: every New* helper returns a
// working (unregistered) metric, so instrumented code never
// nil-checks.
type Registry struct {
	mu   sync.Mutex
	rows []row
}

type row struct {
	name, help, typ string
	render          func(w io.Writer, name string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(name, help, typ string, render func(w io.Writer, name string)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rows = append(r.rows, row{name: name, help: help, typ: typ, render: render})
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.add(name, help, "counter", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, c.Value())
	})
	return c
}

// NewCounterVec registers and returns a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	v := NewCounterVec(labels...)
	r.add(name, help, "counter", func(w io.Writer, n string) {
		v.mu.Lock()
		order := append([]labeled[*Counter](nil), v.order...)
		v.mu.Unlock()
		for _, ch := range order {
			fmt.Fprintf(w, "%s%s %d\n", n, ch.labels, ch.m.Value())
		}
	})
	return v
}

// NewCounterFunc registers a counter whose value is polled at render
// time — the bridge for externally-maintained monotonic counts such as
// the artifact cache's eviction total.
func (r *Registry) NewCounterFunc(name, help string, fn func() uint64) {
	r.add(name, help, "counter", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, fn())
	})
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(name, help, "gauge", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, g.Value())
	})
	return g
}

// NewGaugeFunc registers a gauge whose value is polled at render time —
// the bridge for externally-maintained statistics such as the artifact
// cache's hit counters or a queue's depth.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.add(name, help, "gauge", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %s\n", n, formatFloat(fn()))
	})
}

// NewHistogram registers and returns a histogram (nil bounds:
// DefBuckets).
func (r *Registry) NewHistogram(name, help string, bounds ...float64) *Histogram {
	h := NewHistogram(bounds...)
	r.add(name, help, "histogram", func(w io.Writer, n string) {
		cum := h.snapshot()
		for i, b := range h.bounds {
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, formatFloat(b), cum[i])
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, cum[len(cum)-1])
		fmt.Fprintf(w, "%s_sum %s\n", n, formatFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count %d\n", n, h.Count())
	})
	return h
}

// NewHistogramVec registers and returns a labeled histogram family
// over DefBuckets.
func (r *Registry) NewHistogramVec(name, help string, labels ...string) *HistogramVec {
	v := NewHistogramVec(labels...)
	r.add(name, help, "histogram", func(w io.Writer, n string) {
		v.mu.Lock()
		order := append([]labeled[*Histogram](nil), v.order...)
		v.mu.Unlock()
		for _, ch := range order {
			// {label="value"} -> label="value" for composing with le.
			inner := ch.labels[1 : len(ch.labels)-1]
			cum := ch.m.snapshot()
			for i, b := range ch.m.bounds {
				fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", n, inner, formatFloat(b), cum[i])
			}
			fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", n, inner, cum[len(cum)-1])
			fmt.Fprintf(w, "%s_sum%s %s\n", n, ch.labels, formatFloat(ch.m.Sum()))
			fmt.Fprintf(w, "%s_count%s %d\n", n, ch.labels, ch.m.Count())
		}
	})
	return v
}

// NewFloatGauge registers and returns a float-valued gauge.
func (r *Registry) NewFloatGauge(name, help string) *FloatGauge {
	g := &FloatGauge{}
	r.add(name, help, "gauge", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %s\n", n, formatFloat(g.Value()))
	})
	return g
}

// WriteTo renders every registered metric in registration order using
// the Prometheus text exposition format.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	r.mu.Lock()
	rows := append([]row(nil), r.rows...)
	r.mu.Unlock()
	cw := &countingWriter{w: w}
	for _, m := range rows {
		if m.help != "" {
			fmt.Fprintf(cw, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(cw, "# TYPE %s %s\n", m.name, m.typ)
		m.render(cw, m.name)
	}
	return cw.n, cw.err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

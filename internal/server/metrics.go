package server

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Hand-rolled Prometheus instrumentation: counters, gauges and histograms
// rendered in the text exposition format (version 0.0.4), with no external
// dependencies. The set is deliberately small — exactly what the service
// needs — but the exposition is spec-compliant so any Prometheus scraper or
// promtool check can consume /metrics.

// Registry holds metric families in registration order.
type Registry struct {
	mu       sync.Mutex
	families []family
}

type family interface {
	name() string
	help() string
	typ() string
	// samples appends exposition lines (without HELP/TYPE headers) to b.
	samples(b *strings.Builder)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) register(f family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.families = append(r.families, f)
}

// WriteTo renders every registered family in the text exposition format.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := append([]family(nil), r.families...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name(), f.help())
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name(), f.typ())
		f.samples(&b)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// formatValue renders a float the way Prometheus expects (no exponent for
// integers, +Inf/-Inf/NaN spelled out).
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// labelString renders {k1="v1",k2="v2"} with keys sorted, or "" for none.
func labelString(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing counter.
type Counter struct {
	fname, fhelp string
	v            atomic.Int64
}

// NewCounter registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{fname: name, fhelp: help}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (must be >= 0 to keep the counter monotone).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) name() string { return c.fname }
func (c *Counter) help() string { return c.fhelp }
func (c *Counter) typ() string  { return "counter" }
func (c *Counter) samples(b *strings.Builder) {
	fmt.Fprintf(b, "%s %d\n", c.fname, c.v.Load())
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct {
	fname, fhelp string
	labelNames   []string
	mu           sync.Mutex
	children     map[string]*vecChild
}

type vecChild struct {
	labels map[string]string
	v      atomic.Int64
}

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	cv := &CounterVec{
		fname:      name,
		fhelp:      help,
		labelNames: labelNames,
		children:   make(map[string]*vecChild),
	}
	r.register(cv)
	return cv
}

func (cv *CounterVec) child(labelValues ...string) *vecChild {
	if len(labelValues) != len(cv.labelNames) {
		panic(fmt.Sprintf("metrics: %s: got %d label values, want %d",
			cv.fname, len(labelValues), len(cv.labelNames)))
	}
	key := strings.Join(labelValues, "\x00")
	cv.mu.Lock()
	defer cv.mu.Unlock()
	ch, ok := cv.children[key]
	if !ok {
		labels := make(map[string]string, len(cv.labelNames))
		for i, n := range cv.labelNames {
			labels[n] = labelValues[i]
		}
		ch = &vecChild{labels: labels}
		cv.children[key] = ch
	}
	return ch
}

// Inc adds one to the child with the given label values.
func (cv *CounterVec) Inc(labelValues ...string) { cv.child(labelValues...).v.Add(1) }

// Value returns the current count for the given label values.
func (cv *CounterVec) Value(labelValues ...string) int64 { return cv.child(labelValues...).v.Load() }

func (cv *CounterVec) name() string { return cv.fname }
func (cv *CounterVec) help() string { return cv.fhelp }
func (cv *CounterVec) typ() string  { return "counter" }
func (cv *CounterVec) samples(b *strings.Builder) {
	cv.mu.Lock()
	keys := make([]string, 0, len(cv.children))
	for k := range cv.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*vecChild, len(keys))
	for i, k := range keys {
		children[i] = cv.children[k]
	}
	cv.mu.Unlock()
	for _, ch := range children {
		fmt.Fprintf(b, "%s%s %d\n", cv.fname, labelString(ch.labels), ch.v.Load())
	}
}

// GaugeVec is a gauge family keyed by label values (the coordinator's
// ircluster_worker_up{worker="..."}).
type GaugeVec struct {
	fname, fhelp string
	labelNames   []string
	mu           sync.Mutex
	children     map[string]*vecChild
}

// NewGaugeVec registers a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labelNames ...string) *GaugeVec {
	gv := &GaugeVec{
		fname:      name,
		fhelp:      help,
		labelNames: labelNames,
		children:   make(map[string]*vecChild),
	}
	r.register(gv)
	return gv
}

func (gv *GaugeVec) child(labelValues ...string) *vecChild {
	if len(labelValues) != len(gv.labelNames) {
		panic(fmt.Sprintf("metrics: %s: got %d label values, want %d",
			gv.fname, len(labelValues), len(gv.labelNames)))
	}
	key := strings.Join(labelValues, "\x00")
	gv.mu.Lock()
	defer gv.mu.Unlock()
	ch, ok := gv.children[key]
	if !ok {
		labels := make(map[string]string, len(gv.labelNames))
		for i, n := range gv.labelNames {
			labels[n] = labelValues[i]
		}
		ch = &vecChild{labels: labels}
		gv.children[key] = ch
	}
	return ch
}

// Set stores v for the child with the given label values.
func (gv *GaugeVec) Set(v int64, labelValues ...string) { gv.child(labelValues...).v.Store(v) }

// Value returns the stored value for the given label values.
func (gv *GaugeVec) Value(labelValues ...string) int64 { return gv.child(labelValues...).v.Load() }

func (gv *GaugeVec) name() string { return gv.fname }
func (gv *GaugeVec) help() string { return gv.fhelp }
func (gv *GaugeVec) typ() string  { return "gauge" }
func (gv *GaugeVec) samples(b *strings.Builder) {
	gv.mu.Lock()
	keys := make([]string, 0, len(gv.children))
	for k := range gv.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*vecChild, len(keys))
	for i, k := range keys {
		children[i] = gv.children[k]
	}
	gv.mu.Unlock()
	for _, ch := range children {
		fmt.Fprintf(b, "%s%s %d\n", gv.fname, labelString(ch.labels), ch.v.Load())
	}
}

// Gauge is a settable value; an optional Func overrides the stored value at
// scrape time (used for live readings like queue depth).
type Gauge struct {
	fname, fhelp string
	v            atomic.Int64
	fn           func() float64
}

// NewGauge registers a stored-value gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{fname: name, fhelp: help}
	r.register(g)
	return g
}

// NewGaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) *Gauge {
	g := &Gauge{fname: name, fhelp: help, fn: fn}
	r.register(g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the gauge reading.
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return float64(g.v.Load())
}

func (g *Gauge) name() string { return g.fname }
func (g *Gauge) help() string { return g.fhelp }
func (g *Gauge) typ() string  { return "gauge" }
func (g *Gauge) samples(b *strings.Builder) {
	fmt.Fprintf(b, "%s %s\n", g.fname, formatValue(g.Value()))
}

// Histogram is a fixed-bucket histogram with cumulative bucket semantics.
type Histogram struct {
	fname, fhelp string
	bounds       []float64 // upper bounds, ascending; +Inf implicit
	mu           sync.Mutex
	counts       []int64 // per-bucket (non-cumulative) counts, len(bounds)+1
	sum          float64
	total        int64
}

// NewHistogram registers a histogram with the given ascending upper bounds.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s: bucket bounds not ascending", name))
		}
	}
	h := &Histogram{
		fname:  name,
		fhelp:  help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
	r.register(h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// MaxObservedBound returns the smallest upper bound covering every
// observation so far (+Inf if any observation exceeded the last bound, 0 if
// none). Tests use it to assert histogram distributions.
func (h *Histogram) MaxObservedBound() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := len(h.counts) - 1; i >= 0; i-- {
		if h.counts[i] > 0 {
			if i == len(h.bounds) {
				return math.Inf(1)
			}
			return h.bounds[i]
		}
	}
	return 0
}

// HistogramVec is a histogram family keyed by label values, sharing one set
// of bucket bounds.
type HistogramVec struct {
	fname, fhelp string
	labelNames   []string
	bounds       []float64
	mu           sync.Mutex
	children     map[string]*Histogram
	order        []string
}

// NewHistogramVec registers a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	hv := &HistogramVec{
		fname:      name,
		fhelp:      help,
		labelNames: labelNames,
		bounds:     append([]float64(nil), bounds...),
		children:   make(map[string]*Histogram),
	}
	r.register(hv)
	return hv
}

// With returns the child histogram for the given label values, creating it
// on first use. Children are NOT individually registered; the vec renders
// them under one family header.
func (hv *HistogramVec) With(labelValues ...string) *Histogram {
	if len(labelValues) != len(hv.labelNames) {
		panic(fmt.Sprintf("metrics: %s: got %d label values, want %d",
			hv.fname, len(labelValues), len(hv.labelNames)))
	}
	key := strings.Join(labelValues, "\x00")
	hv.mu.Lock()
	defer hv.mu.Unlock()
	h, ok := hv.children[key]
	if !ok {
		h = &Histogram{
			fname:  hv.fname,
			bounds: append([]float64(nil), hv.bounds...),
			counts: make([]int64, len(hv.bounds)+1),
		}
		hv.children[key] = h
		hv.order = append(hv.order, key)
		sort.Strings(hv.order)
	}
	return h
}

func (hv *HistogramVec) name() string { return hv.fname }
func (hv *HistogramVec) help() string { return hv.fhelp }
func (hv *HistogramVec) typ() string  { return "histogram" }
func (hv *HistogramVec) samples(b *strings.Builder) {
	hv.mu.Lock()
	order := append([]string(nil), hv.order...)
	hv.mu.Unlock()
	for _, key := range order {
		hv.mu.Lock()
		h := hv.children[key]
		hv.mu.Unlock()
		vals := strings.Split(key, "\x00")
		labels := make(map[string]string, len(hv.labelNames)+1)
		for i, n := range hv.labelNames {
			labels[n] = vals[i]
		}
		h.mu.Lock()
		counts := append([]int64(nil), h.counts...)
		sum, total := h.sum, h.total
		h.mu.Unlock()
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += counts[i]
			labels["le"] = formatValue(bound)
			fmt.Fprintf(b, "%s_bucket%s %d\n", hv.fname, labelString(labels), cum)
		}
		labels["le"] = "+Inf"
		fmt.Fprintf(b, "%s_bucket%s %d\n", hv.fname, labelString(labels), total)
		delete(labels, "le")
		fmt.Fprintf(b, "%s_sum%s %s\n", hv.fname, labelString(labels), formatValue(sum))
		fmt.Fprintf(b, "%s_count%s %d\n", hv.fname, labelString(labels), total)
	}
}

func (h *Histogram) name() string { return h.fname }
func (h *Histogram) help() string { return h.fhelp }
func (h *Histogram) typ() string  { return "histogram" }
func (h *Histogram) samples(b *strings.Builder) {
	h.mu.Lock()
	counts := append([]int64(nil), h.counts...)
	sum, total := h.sum, h.total
	h.mu.Unlock()
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", h.fname, formatValue(bound), cum)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", h.fname, total)
	fmt.Fprintf(b, "%s_sum %s\n", h.fname, formatValue(sum))
	fmt.Fprintf(b, "%s_count %d\n", h.fname, total)
}

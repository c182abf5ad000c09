package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// LatencyBuckets is the default histogram bucket ladder for request and
// stage latencies, in seconds: half a millisecond to ten seconds on a
// roughly-logarithmic grid.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds a daemon's metric families and renders them in the
// Prometheus text exposition format. All methods are safe for
// concurrent use. A daemon keeps every counter here, whether or not it
// serves the registry at /v1/metrics: the same series back its JSON
// /v1/stats.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one metric name: its metadata plus a child per label-value
// combination.
type family struct {
	name    string
	help    string
	kind    string // "counter", "gauge" or "histogram"
	labels  []string
	buckets []float64

	mu       sync.Mutex
	children map[string]*child
}

// child is one (metric, label values) series.
type child struct {
	values []string

	mu  sync.Mutex
	val float64 // counter total or gauge value

	bcount []uint64 // histogram per-bucket cumulative-from-zero counts (per bucket, not cumulative)
	sum    float64
	n      uint64
}

// register creates or fetches a family, enforcing metadata consistency
// (a name registered twice must agree on kind and label set — a
// programming error, reported loudly).
func (r *Registry) register(name, help, kind string, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v", name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// get fetches or creates the child for one label-value combination.
func (f *family) get(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{values: append([]string(nil), values...)}
	if f.kind == "histogram" {
		c.bcount = make([]uint64, len(f.buckets))
	}
	f.children[key] = c
	return c
}

// CounterVec is a counter family; With selects one labelled series.
type CounterVec struct{ f *family }

// Counter registers (or fetches) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, "counter", nil, labels)}
}

// With selects the series for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	return &Counter{ch: v.f.get(values)}
}

// Counter is one monotonically increasing series.
type Counter struct{ ch *child }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are ignored (counters are
// monotone by definition).
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		return
	}
	c.ch.mu.Lock()
	c.ch.val += delta
	c.ch.mu.Unlock()
}

// Value reads the counter's total.
func (c *Counter) Value() float64 {
	c.ch.mu.Lock()
	defer c.ch.mu.Unlock()
	return c.ch.val
}

// GaugeVec is a gauge family; With selects one labelled series.
type GaugeVec struct{ f *family }

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, "gauge", nil, labels)}
}

// With selects the series for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return &Gauge{ch: v.f.get(values)}
}

// Gauge is one settable series.
type Gauge struct{ ch *child }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.ch.mu.Lock()
	g.ch.val = v
	g.ch.mu.Unlock()
}

// Add moves the gauge by delta (use a negative delta to decrement).
func (g *Gauge) Add(delta float64) {
	g.ch.mu.Lock()
	g.ch.val += delta
	g.ch.mu.Unlock()
}

// HistogramVec is a histogram family; With selects one labelled series.
type HistogramVec struct{ f *family }

// Histogram registers (or fetches) a histogram family with the given
// upper bucket bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = LatencyBuckets
	}
	return &HistogramVec{f: r.register(name, help, "histogram", buckets, labels)}
}

// With selects the series for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{buckets: v.f.buckets, ch: v.f.get(values)}
}

// Histogram is one labelled latency distribution.
type Histogram struct {
	buckets []float64
	ch      *child
}

// Observe records one measurement.
func (h *Histogram) Observe(v float64) {
	h.ch.mu.Lock()
	for i, ub := range h.buckets {
		if v <= ub {
			h.ch.bcount[i]++
			break
		}
	}
	h.ch.sum += v
	h.ch.n++
	h.ch.mu.Unlock()
}

// Gather snapshots the registry into the parsed-exposition shape shared
// with ParseExposition — the form the gateway merges member scrapes
// into, and WriteExposition renders. Families come in name order and
// series in label-value order, so consecutive scrapes of an idle daemon
// are byte-identical — the property the golden example and the
// promlint CI check rely on.
func (r *Registry) Gather() []MetricFamily {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	out := make([]MetricFamily, 0, len(fams))
	for _, f := range fams {
		out = append(out, f.gather())
	}
	return out
}

// gather snapshots one family.
func (f *family) gather() MetricFamily {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	children := make([]*child, 0, len(keys))
	sort.Strings(keys)
	for _, k := range keys {
		children = append(children, f.children[k])
	}
	f.mu.Unlock()

	mf := MetricFamily{Name: f.name, Help: f.help, Type: f.kind}
	for _, c := range children {
		base := make([]Label, len(f.labels))
		c.mu.Lock()
		for i, ln := range f.labels {
			base[i] = Label{Name: ln, Value: c.values[i]}
		}
		switch f.kind {
		case "histogram":
			cum := uint64(0)
			for i, ub := range f.buckets {
				cum += c.bcount[i]
				mf.Samples = append(mf.Samples, Sample{
					Name:   f.name + "_bucket",
					Labels: append(append([]Label(nil), base...), Label{Name: "le", Value: formatValue(ub)}),
					Value:  float64(cum),
				})
			}
			mf.Samples = append(mf.Samples, Sample{
				Name:   f.name + "_bucket",
				Labels: append(append([]Label(nil), base...), Label{Name: "le", Value: "+Inf"}),
				Value:  float64(c.n),
			})
			mf.Samples = append(mf.Samples,
				Sample{Name: f.name + "_sum", Labels: base, Value: c.sum},
				Sample{Name: f.name + "_count", Labels: base, Value: float64(c.n)})
		default:
			mf.Samples = append(mf.Samples, Sample{Name: f.name, Labels: base, Value: c.val})
		}
		c.mu.Unlock()
	}
	return mf
}

// formatValue renders a sample value the way Prometheus does.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

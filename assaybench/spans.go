package main

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public entry point or read back from the spans
// the daemon serves at /v1/assays/{id}/trace. Spans of one job share
// its job ID; Parent links a span to the span that caused it.
type span struct {
	ID     string  `json:"id"`
	Parent string  `json:"parent,omitempty"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Job    string  `json:"job,omitempty"`
	Start  float64 `json:"start"` // Unix seconds
	End    float64 `json:"end"`
}

func (s span) dur() float64 { return s.End - s.Start }

func secs(t time.Time) float64 { return float64(t.UnixNano()) / 1e9 }

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	seq   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) newID(prefix string) string {
	return prefix + strconv.FormatUint(t.seq.Add(1), 10)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes returns, per layer, the summed self time of its spans in
// seconds: each span's duration minus the part of its interval that
// its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[string][]span)
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Layer] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped
// to the parent's interval.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := 0.0, parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

package obs

import (
	"strconv"
	"sync"
)

// TraceCap bounds the span ring of one job. A normal job emits half a
// dozen spans (submit → queue → place → execute → persist → finish);
// the headroom absorbs retries and federation hops without letting a
// pathological caller grow memory per job.
const TraceCap = 64

// Trace is the bounded per-job span ring, kept beside the event ring.
// Span IDs are derived — job ID plus a monotonic counter — so two runs
// of the same job produce structurally identical trees; only the wall
// timestamps differ, and those are telemetry outside the determinism
// contract. All methods on a nil *Trace (tracing disabled) are no-ops.
type Trace struct {
	mu      sync.Mutex
	job     string
	parent  string // foreign parent span ID from X-Assay-Trace, if any
	next    uint64
	spans   []Span
	dropped int
}

// Span is one timed stage of a job.
type Span struct {
	ID     string  `json:"id"`
	Parent string  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end,omitempty"` // zero while the span is open
	Attrs  []Attr  `json:"attrs,omitempty"`
}

// Attr is one span attribute.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// TraceDoc is the wire form served at /v1/assays/{id}/trace.
type TraceDoc struct {
	Job     string `json:"job"`
	Parent  string `json:"parent,omitempty"`
	Dropped int    `json:"dropped,omitempty"`
	Spans   []Span `json:"spans"`
}

// NewTrace starts the span ring for one job. parent is the foreign
// span ID carried by an X-Assay-Trace header ("" for a locally
// submitted job).
func NewTrace(job, parent string) *Trace {
	return &Trace{job: job, parent: parent}
}

// SpanRef addresses one span of a trace for End calls; the zero
// SpanRef (from a nil trace) is inert.
type SpanRef struct {
	t  *Trace
	id string
}

// ID returns the span's derived identifier ("" for the inert ref).
func (s SpanRef) ID() string { return s.id }

// Start opens a span now. parent is a span ID from the same trace, the
// trace's foreign parent, or "" for a root span.
func (t *Trace) Start(name, parent string, attrs ...Attr) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	return t.add(Span{Parent: parent, Name: name, Start: Now().Seconds(), Attrs: attrs})
}

// Add records a completed span retroactively — for stages measured
// before the job (and hence the trace) existed, like placement.
func (t *Trace) Add(name, parent string, start, end Stamp, attrs ...Attr) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	return t.add(Span{Parent: parent, Name: name, Start: start.Seconds(), End: end.Seconds(), Attrs: attrs})
}

func (t *Trace) add(sp Span) SpanRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	sp.ID = t.job + ":" + strconv.FormatUint(t.next, 10)
	if len(t.spans) >= TraceCap {
		t.dropped++
		return SpanRef{}
	}
	t.spans = append(t.spans, sp)
	return SpanRef{t: t, id: sp.ID}
}

// End closes the span now; ending an already-closed or inert ref is a
// no-op.
func (s SpanRef) End() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for i := range s.t.spans {
		if s.t.spans[i].ID == s.id && s.t.spans[i].End == 0 {
			s.t.spans[i].End = Now().Seconds()
			return
		}
	}
}

// Snapshot copies the trace into its wire form. A nil trace snapshots
// to an empty document.
func (t *Trace) Snapshot() TraceDoc {
	if t == nil {
		return TraceDoc{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceDoc{
		Job:     t.job,
		Parent:  t.parent,
		Dropped: t.dropped,
		Spans:   append([]Span(nil), t.spans...),
	}
}

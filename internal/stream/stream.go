// Package stream is the live event surface of an executing assay: a
// small deterministic event vocabulary (job placement, per-operation
// progress, scan-table row batches, routing provenance, completion)
// plus a replayable per-job ring that keeps the stream and fans events
// out to any number of subscribers without ever blocking the producer.
//
// The package sits below every layer that emits or serves events: the
// chip simulator and the assay executor publish through a Sink, the
// assay service owns one Ring per job, and the HTTP layer turns a Sub
// into a Server-Sent-Events stream (GET /v1/assays/{id}/events). The
// package owns that wire format too: WriteSSE frames an event, and
// SSEReader, which relays and clients read a stream with, parses one.
//
// Determinism contract. Event payloads carry only seed-deterministic
// state: sequence numbers, the simulated clock (T) and the operation /
// scan / plan fields are bit-identical for a fixed seed regardless of
// chip.Config.Parallelism, shard count, stealing or subscriber
// behaviour. The only exception is Wall, the wall-clock publish stamp,
// which is explicitly excluded from the contract (tests zero it before
// comparing). docs/streaming.md is the full taxonomy and wire contract.
package stream

import "encoding/json"

// Event types. The job.* envelope events are published by the service
// around an execution; everything else is emitted by the instrumented
// executor (internal/assay, internal/chip). The gap and shutdown types
// are synthesized at delivery time and never stored in a ring.
const (
	// JobPlaced announces admission: the job exists, placement chose
	// its eligible profiles, and it is queued. Always seq 1.
	JobPlaced = "job.placed"
	// JobStarted announces that a shard claimed the job. Always seq 2.
	JobStarted = "job.started"
	// OpStarted and OpFinished bracket every assay operation.
	OpStarted  = "op.started"
	OpFinished = "op.finished"
	// ScanRows carries one batch of scan-table rows as the detector
	// produces them; a scan emits ⌈sites/ChunkRows⌉ batches.
	ScanRows = "scan.rows"
	// PlanExecuted is the routing provenance of one executed plan.
	PlanExecuted = "plan.executed"
	// JobDone and JobFailed terminate a job's stream (the ring closes
	// right after).
	JobDone   = "job.done"
	JobFailed = "job.failed"
	// Gap tells a subscriber that a range of the stream is lost — an
	// upstream reported it lost, or a relay skipped its frame — and no
	// backfill could recover it; Event.Gap holds the lost range. Gap
	// events have no sequence number of their own.
	Gap = "gap"
	// Shutdown tells a subscriber the service has drained and is about
	// to exit; it is the last event of a stream when it appears.
	Shutdown = "shutdown"
)

// ChunkRows is the scan-table batch size: a scan's detection table is
// streamed in batches of at most this many rows.
const ChunkRows = 64

// Event is one entry of a job's event stream. Payload fields are
// pointers so each event carries exactly the block its type needs and
// the JSON wire form stays compact; field order here fixes the wire
// order (docs/examples/events.ndjson pins it).
type Event struct {
	// Seq is the monotonic per-job sequence number, starting at 1.
	// Synthetic events (gap, shutdown) have Seq 0.
	Seq uint64 `json:"seq,omitempty"`
	// Type is one of the event-type constants above.
	Type string `json:"type"`
	// T is the simulated assay clock at emission, in seconds. Part of
	// the determinism contract.
	T float64 `json:"t"`
	// Wall is the wall-clock publish time in Unix seconds. It is
	// telemetry only and excluded from the determinism contract.
	Wall float64 `json:"wall,omitempty"`
	// Job is the envelope payload of job.* events.
	Job *JobInfo `json:"job,omitempty"`
	// Op is the payload of op.started / op.finished events.
	Op *OpInfo `json:"op,omitempty"`
	// Scan is the payload of scan.rows events.
	Scan *ScanChunk `json:"scan,omitempty"`
	// Plan is the payload of plan.executed events.
	Plan *PlanInfo `json:"plan,omitempty"`
	// Gap is the payload of gap events.
	Gap *GapInfo `json:"gap,omitempty"`
	// Err carries the failure message of job.failed events.
	Err string `json:"error,omitempty"`

	// enc is the event's JSON encoding: written once by Ring.Publish,
	// or carried in from elsewhere (WithEncoding) — an upstream
	// daemon's frame, a durable log's record. Nil for an event that
	// went through neither, such as a Collector's.
	enc []byte
}

// WithEncoding returns ev carrying data as its wire encoding, which
// Data then returns verbatim. A relay uses it to forward an upstream
// frame without re-encoding it, and a durable log to serve a persisted
// stream without decoding it: data must be the JSON encoding of the
// event (the carrier may decode only the fields it acts on, so ev's
// other payload blocks may be nil), and any later change to ev must be
// followed by a fresh WithEncoding.
func WithEncoding(ev Event, data []byte) Event {
	ev.enc = data
	return ev
}

// Data returns the event's JSON wire encoding, the data: payload of an
// SSE frame and an element of a finish record's stream: the encoding
// the event carries (Ring.Publish, WithEncoding), otherwise json.Marshal
// of the event — for synthetic events, which no ring stores, and
// events built outside a ring.
func (ev Event) Data() ([]byte, error) {
	if ev.enc != nil {
		return ev.enc, nil
	}
	return json.Marshal(ev)
}

// JobInfo is the envelope payload: identity at placement, the executing
// profile at start, and the report summary at completion.
type JobInfo struct {
	ID      string `json:"id,omitempty"`
	Program string `json:"program,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	// Eligible lists the profiles placement admitted the job to.
	Eligible []string `json:"eligible,omitempty"`
	// Profile is the die profile whose shard executes the job.
	Profile string `json:"profile,omitempty"`
	// Completion summary (job.done): simulated duration, trapped
	// particles, routed steps and accumulated scan errors.
	Duration   float64 `json:"duration,omitempty"`
	Trapped    int     `json:"trapped,omitempty"`
	Steps      int     `json:"steps,omitempty"`
	ScanErrors int     `json:"scan_errors,omitempty"`
}

// OpInfo identifies one assay operation by position and wire kind.
type OpInfo struct {
	// Index is the operation's position in the program.
	Index int `json:"index"`
	// Kind is the operation's wire name ("load", "scan", ...).
	Kind string `json:"kind"`
	// Detail is a deterministic human-readable summary: the op
	// description on op.started, the outcome on op.finished.
	Detail string `json:"detail,omitempty"`
}

// ScanChunk is one batch of scan-table rows.
type ScanChunk struct {
	// Scan is the 0-based scan number within the job.
	Scan int `json:"scan"`
	// Batch / Batches locate the chunk within the scan's table.
	Batch   int `json:"batch"`
	Batches int `json:"batches"`
	// Averaging is the per-pixel sample count of the scan.
	Averaging int `json:"averaging"`
	// Rows is the chunk's slice of the detection table, in the scan's
	// deterministic site order.
	Rows []Detection `json:"rows"`
}

// Detection is the stream wire form of one cage site's scan verdict
// (a flattened chip.Detection).
type Detection struct {
	Col      int     `json:"col"`
	Row      int     `json:"row"`
	ID       int     `json:"id"`
	Occupied bool    `json:"occupied"`
	Detected bool    `json:"detected"`
	SNR      float64 `json:"snr"`
}

// PlanInfo is the routing provenance of one executed plan.
type PlanInfo struct {
	// Planner is the full name of the producing planner.
	Planner string `json:"planner,omitempty"`
	// Makespan and Moves summarize the executed plan.
	Makespan int `json:"makespan"`
	Moves    int `json:"moves"`
}

// GapInfo is the inclusive sequence range a gap event reports lost.
type GapInfo struct {
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
}

// Sink consumes events as instrumentation produces them. Sinks are
// invoked synchronously on the executing goroutine and must not block
// (Ring.Publish, the production sink, never does).
type Sink func(Event)

// Collector is an in-memory Sink for serial replays and tests: it
// assigns sequence numbers exactly like a Ring (starting at 1) but
// retains every event and never stamps Wall.
type Collector struct {
	next   uint64
	Events []Event
}

// Sink returns the collecting sink.
func (c *Collector) Sink() Sink {
	return func(ev Event) {
		c.next++
		ev.Seq = c.next
		c.Events = append(c.Events, ev)
	}
}

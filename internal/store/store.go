// Package store is the durable job store of the assay service: a
// pluggable persistence layer that write-ahead-logs every admitted
// submission before it is acked, persists each job's terminal state
// (report or error plus its full event stream) when it finishes, and
// replays the whole history at startup so a restarted daemon serves
// finished jobs from disk and re-executes jobs that were queued or
// running at crash time.
//
// The package records *what happened*, never *how to recover* — the
// determinism contract (docs/determinism.md) makes recovery trivial: a
// job is a pure function of (program, seed, profile config), so a
// submit record with no matching finish record is simply re-executed
// and re-emits the same report and the same event sequence the lost
// run would have produced. docs/persistence.md documents the on-disk
// format, the recovery semantics and their interaction with the
// determinism contract.
//
// The same log also serves the federation gateway (internal/
// federation): route records bind a gateway job ID to the worker
// daemon that executes it, and a finish record, spliced from the
// member's report and event bytes, ends each routed job the gateway
// saw finish. A restarted gateway serves those jobs from its own log
// and re-resolves only the unfinished ones instead of losing track of
// acked work.
//
// Disk, an append-only segment log with CRC framing and an in-memory
// index (see segment.go), is the one implementation, and every daemon
// has one: without a data directory, a private one (OpenTemp) that its
// Close removes. The store never interprets program or report payloads
// — both travel as raw JSON — so it depends only on the stream event
// vocabulary.
package store

import (
	"encoding/json"
	"errors"

	"biochip/internal/stream"
)

// Record kinds, the values of Record.Kind.
const (
	// KindSubmit is the write-ahead record of one admitted submission.
	KindSubmit = "submit"
	// KindFinish is the terminal record of one finished job.
	KindFinish = "finish"
	// KindRoute is a federation gateway's job→member binding: the job
	// was forwarded to a worker daemon rather than executed locally.
	KindRoute = "route"
)

// ErrUnknownJob is returned by Events for a job the store has no
// finish record for.
var ErrUnknownJob = errors.New("store: unknown job")

// Record is one entry of the log: a kind tag plus exactly one payload
// block. The JSON form of this struct is the segment-log payload
// format.
type Record struct {
	Kind   string        `json:"kind"`
	Submit *SubmitRecord `json:"submit,omitempty"`
	Finish *FinishRecord `json:"finish,omitempty"`
	Route  *RouteRecord  `json:"route,omitempty"`
}

// SubmitRecord is the write-ahead log entry of one admitted job,
// appended before the submission is acked. It carries everything
// re-execution needs: the job identity and the (program, seed) pair
// that — together with the executing profile's die config — fully
// determines the job's report and event stream.
type SubmitRecord struct {
	// ID is the job ID ("a-000001"); recovery continues the sequence
	// past the highest ID in the log.
	ID string `json:"id"`
	// Seed is the request seed.
	Seed uint64 `json:"seed"`
	// Program is the program in the assay JSON wire format, stored
	// verbatim so the store does not depend on the assay codec.
	Program json.RawMessage `json:"program"`
}

// FinishRecord is the terminal log entry of one job: its outcome, the
// placement that produced it, the report and the full event stream.
// A job with a finish record is served from the store after a restart;
// one without is re-executed on a worker, and followed on its member
// again by a gateway, whose finish records carry the member's report
// and event bytes under the gateway's job ID.
type FinishRecord struct {
	ID string `json:"id"`
	// Status is the terminal state, "done" or "failed".
	Status string `json:"status"`
	// Profile names the die profile that executed the job; with the
	// seed it pins the config a serial replay must use.
	Profile string `json:"profile,omitempty"`
	// Eligible is the profile set placement admitted the job to.
	Eligible []string `json:"eligible,omitempty"`
	// Error is the failure message of failed jobs.
	Error string `json:"error,omitempty"`
	// Key is the hex content-address of the job's (program, seed,
	// profile-config) triple (internal/cache), set on successful roots.
	// A restarted worker rebuilds its result-cache index from these
	// keys, so it answers cache lookups for everything it ever computed.
	Key string `json:"key,omitempty"`
	// DedupOf marks a cache-hit alias: the job was answered from the
	// finish record of the named root job and persists neither report
	// nor events of its own — Events resolves through the root.
	DedupOf string `json:"dedup_of,omitempty"`
	// Report is the assay report JSON of done jobs, stored verbatim: it
	// must be compact, as json.Marshal writes it.
	Report json.RawMessage `json:"report,omitempty"`
	// Events is the job's full event stream (sequence numbers 1..n,
	// wall stamps included — they are telemetry, not contract). Each
	// event is stored as its encoding (stream.Event.Data).
	Events []stream.Event `json:"events,omitempty"`
}

// RouteRecord is a federation gateway's durable job→member binding,
// appended before the forwarded submission is acked. A restarted
// gateway replays these records to rebuild every routed job: until
// the job's own finish record follows it in the log, the worker daemon
// named by Member owns the execution (and, when durable itself, the
// report and event stream), so the gateway needs only the binding —
// plus the (program, seed) pair, kept so the gateway can recompute the
// job's content-address and keep deduplicating across the restart.
type RouteRecord struct {
	// ID is the gateway-side job ID ("a-000001"); recovery continues
	// the sequence past the highest ID in the log.
	ID string `json:"id"`
	// Member names the worker the job was forwarded to (members.json).
	Member string `json:"member"`
	// RemoteID is the job's ID on that worker.
	RemoteID string `json:"remote_id"`
	// Seed is the request seed, forwarded verbatim.
	Seed uint64 `json:"seed"`
	// Program is the program in the assay JSON wire format, stored
	// verbatim as cache-key material.
	Program json.RawMessage `json:"program,omitempty"`
}

// Stats is a point-in-time store snapshot, surfaced by the service
// under /v1/stats.
type Stats struct {
	// Kind names the implementation: "disk", or "merged" on a
	// federation gateway's sum over its members' stores.
	Kind string `json:"kind"`
	// Dir is the data directory of a disk store.
	Dir string `json:"dir,omitempty"`
	// Segments is the number of log segment files.
	Segments int `json:"segments,omitempty"`
	// Bytes is the total size of the log in bytes.
	Bytes int64 `json:"bytes,omitempty"`
	// Records is the number of live records in the log.
	Records uint64 `json:"records,omitempty"`
	// Truncated counts bytes of torn or corrupt log tail discarded at
	// open time — nonzero exactly when the last shutdown was a crash
	// mid-append.
	Truncated int64 `json:"truncated,omitempty"`
}

// Store is the persistence layer of the assay service. Implementations
// must serialize their own appends; the service calls LogSubmit under
// its submission lock so log order always matches job-ID order.
type Store interface {
	// LogSubmit durably appends the write-ahead record of an admitted
	// job. The service acks the submission only after it returns nil.
	LogSubmit(rec SubmitRecord) error
	// LogFinish durably appends a job's terminal record.
	LogFinish(rec FinishRecord) error
	// LogRoute durably appends a federation gateway's job→member
	// binding. The gateway acks the forwarded submission only after it
	// returns nil.
	LogRoute(rec RouteRecord) error
	// Replay invokes fn with every record in append order. It is called
	// once, at service startup, before any Log append.
	Replay(fn func(rec *Record) error) error
	// Events returns the persisted full event stream of a finished job
	// (ErrUnknownJob when the log has no finish record for the ID). It
	// serves a finished job's stream to subscribers and backs
	// Last-Event-ID resume across restarts. Each event carries its
	// sequence number, its type and its encoding (Data); its payload
	// blocks are not decoded. Cache-hit aliases (FinishRecord.DedupOf)
	// resolve to their root's stream.
	Events(id string) ([]stream.Event, error)
	// Stats snapshots the store counters.
	Stats() Stats
	// Close releases the store. A Close without a prior drain is the
	// SIGKILL-equivalent the recovery path is built for: in-flight jobs
	// simply have no finish record and re-execute on the next open.
	Close() error
}

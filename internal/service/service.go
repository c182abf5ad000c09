// Package service is the sharded multi-chip assay service: a
// heterogeneous fleet of chip.Simulator shards grouped into die
// profiles (mixed array sizes and technology nodes), a capability-aware
// placement layer that admits each assay program only to profiles that
// can run it, per-compatibility-class work queues with stealing
// confined to legal shards, and a bounded submission queue with
// per-request job tracking.
//
// Placement works on requirements: a submitted program either carries
// an explicit assay.Requirements block or has one inferred from its
// operations (array footprint, gather/move geometry, scan needs), and a
// profile is eligible when the requirements and the full Program.Check
// pass against its chip.Config. Jobs queue on their compatibility class
// — the exact set of eligible profiles — and a shard only ever claims
// from classes its own profile belongs to, so stealing across
// incompatible profiles is impossible by construction. A program no
// profile can run is rejected at submission with *IncompatibleError
// (HTTP 422), never at execution.
//
// Requests carry their own seed, and a shard executes a request by
// resetting its die to that seed (chip.Reset) before running the
// program (assay.ExecuteOn), so which shard runs a request — and what
// the fleet looks like — never changes a single bit of the result: a
// fleet run is bit-identical to a serial replay of the same seeded
// program under the executing profile's chip.Config. The expensive
// cage-field calibration is memoized per spec (dep.NewCageModel), so
// each profile pays its cold-start cost once; CacheStats surfaces the
// amortization globally and Stats.Profiles per profile.
//
// cmd/assayd exposes the service over HTTP (see Handler) and
// cmd/assayctl is the matching client. The wire format for programs is
// the assay JSON codec, and the fleet shape is configured with a fleet
// spec file (FleetSpec); both are documented in docs/assay-format.md
// and docs/cli.md.
package service

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"biochip/internal/assay"
	"biochip/internal/cache"
	"biochip/internal/chip"
	"biochip/internal/dep"
	"biochip/internal/obs"
	"biochip/internal/parallel"
	"biochip/internal/store"
	"biochip/internal/stream"
	"biochip/internal/tech"
)

// DefaultQueueDepth bounds the submission queue when Config.QueueDepth
// is zero.
const DefaultQueueDepth = 64

// ErrQueueFull is returned by Submit when the bounded submission queue
// is at capacity; callers should back off and retry (HTTP maps it to
// 429 Too Many Requests with a Retry-After header).
var ErrQueueFull = errors.New("service: submission queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: closed")

// ErrDraining is returned by Submit while the service drains for
// shutdown: it no longer admits work but still finishes what it has
// (HTTP maps it to 503 with a Retry-After header).
var ErrDraining = errors.New("service: draining, not admitting new assays")

// ErrUnavailable marks a refusal no retry against the same backend is
// likely to fix soon — a federation gateway with no reachable member
// returns an error that unwraps to it (HTTP maps it to 503 without
// Retry-After).
var ErrUnavailable = errors.New("service: unavailable")

// ErrTooLarge marks a submission whose body exceeds a bound: a
// daemon's own on the body it reads, or — through a gateway — the
// member's on the program the gateway forwards, which re-encoding can
// lengthen past the bound the client's body met (HTTP maps it to 413).
var ErrTooLarge = errors.New("service: submission too large")

// ErrPersist wraps a job-log append failure during Submit: the
// write-ahead record could not be written, so the submission is
// refused rather than acked (HTTP maps it to 500). Jobs already
// admitted are unaffected.
var ErrPersist = errors.New("service: persisting submission")

// IncompatibleError is returned by Submit when a structurally valid
// program fits no profile of the fleet: its requirements (explicit or
// inferred) and Program.Check were evaluated against every profile and
// all rejected it. HTTP maps it to 422 Unprocessable Entity. Reasons
// records the per-profile rejection.
type IncompatibleError struct {
	// Program is the submitted program's name.
	Program string
	// Requirements is the requirement set placement used.
	Requirements assay.Requirements
	// Reasons maps profile name → why that profile rejected the program.
	Reasons map[string]string
}

// Error implements error.
func (e *IncompatibleError) Error() string {
	names := make([]string, 0, len(e.Reasons))
	for name := range e.Reasons {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, name+": "+e.Reasons[name])
	}
	return fmt.Sprintf("service: program %q fits no profile (%s)",
		e.Program, strings.Join(parts, "; "))
}

// Profile describes one die class of a heterogeneous fleet: a name, the
// number of identical shards built from it, the per-die platform
// configuration, and an optional CMOS technology node.
type Profile struct {
	// Name identifies the profile in jobs, stats and fleet specs.
	Name string
	// Shards is the number of simulated dies built from this profile
	// (≥ 1).
	Shards int
	// Chip is the per-die platform configuration; request seeds
	// override Chip.Seed per execution.
	Chip chip.Config
	// Tech optionally names a CMOS node (internal/tech, e.g. "0.35um").
	// The node must exist and be feasible for the profile's array
	// (pitch, dimensions) or New fails; it gates admission of the
	// profile itself, not the simulated physics.
	Tech string
	// NoCache opts the profile out of the result cache: any job this
	// profile is eligible for always executes. Use it for profiles
	// whose runs are observed for their side effects (burn-in,
	// calibration sweeps) rather than their reports.
	NoCache bool
}

// Check returns why a die of the profile cannot run the program, or nil:
// reqs, its effective requirements, then its full check. Worker and
// gateway placement both decide eligibility by it.
func (p *Profile) Check(pr assay.Program, reqs assay.Requirements) error {
	if err := reqs.Check(p.Chip); err != nil {
		return err
	}
	return pr.Check(p.Chip)
}

// Config sizes the service.
type Config struct {
	// Profiles is the fleet: one entry per die class. Empty means a
	// homogeneous pool of Shards dies named "default", built from Chip.
	Profiles []Profile
	// Shards is the homogeneous pool size when Profiles is empty; < 1
	// means GOMAXPROCS.
	Shards int
	// QueueDepth bounds queued (not yet running) requests across the
	// whole fleet; 0 means DefaultQueueDepth.
	QueueDepth int
	// Chip is the per-die platform configuration of the homogeneous
	// pool when Profiles is empty.
	Chip chip.Config
	// Store is the job log: submissions are WAL'd to it before Submit
	// acks, terminal records (report + full event stream) are appended
	// on finish, and New replays it — finished jobs come back served
	// from disk, jobs that were in flight at a crash are re-executed
	// deterministically from (program, seed). Nil opens a private log
	// (store.OpenTemp) that Close removes. The service owns either.
	Store store.Store
	// Cache configures the content-addressed result cache (enabled by
	// default; see CacheConfig and docs/caching.md).
	Cache CacheConfig
	// Obs is the registry served at GET /v1/metrics; setting it also
	// records a span trace per job (GET /v1/assays/{id}/trace). Nil
	// serves neither, and the service records the same metrics into a
	// private registry that backs /v1/stats alone. The registry is the
	// service's only counter store, so it must serve one backend: two
	// sharing one would merge their /v1/stats counters. Observability is
	// out-of-band telemetry: reports and event streams are bit-identical
	// with it on or off (docs/observability.md).
	Obs *obs.Registry
}

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states.
const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Job is the per-request record. Snapshots returned by Get/Wait are
// copies; Report and Eligible are shared but never mutated after
// creation.
type Job struct {
	ID      string `json:"id"`
	Status  Status `json:"status"`
	Program string `json:"program"`
	Seed    uint64 `json:"seed"`
	// Eligible lists the profiles placement admitted the job to, in
	// fleet order.
	Eligible []string `json:"eligible,omitempty"`
	// Profile is the profile whose shard executed the job ("" until
	// running).
	Profile string `json:"profile,omitempty"`
	// Assigned is the shard the dispatcher designated at submission
	// (round-robin over the eligible profiles' shards).
	Assigned int `json:"assigned"`
	// Shard is the shard that executed the job (-1 until running). It
	// differs from Assigned when an idle compatible shard claimed the
	// job first.
	Shard int `json:"shard"`
	// Stolen reports Shard != Assigned for executed jobs.
	Stolen bool `json:"stolen"`
	// Recovered marks a job restored from the durable store at startup:
	// either served from its persisted terminal record, or re-executed
	// deterministically after a crash interrupted it.
	Recovered bool `json:"recovered,omitempty"`
	// CacheHit marks a job answered from the result cache without
	// executing; DedupOf names the root job that computed the shared
	// report and event stream (docs/caching.md).
	CacheHit bool   `json:"cache_hit,omitempty"`
	DedupOf  string `json:"dedup_of,omitempty"`
	Error    string `json:"error,omitempty"`
	// Report is the assay.Report of a done job as JSON, encoded once
	// when the executing worker finishes the job; the finish record,
	// cache aliases, GET bodies and a gateway's copy all reuse these
	// bytes. Decode it to read report fields.
	Report json.RawMessage `json:"report,omitempty"`
	// Member names the worker a federation gateway routed the job to;
	// empty on a worker, and for an unfinished gateway job whose member
	// left the members spec (a finished one keeps it, from the route
	// record). It stays the last field so gateway bodies keep it last.
	Member string `json:"member,omitempty"`

	pr   assay.Program
	done chan struct{}
	// ring is the job's event stream; it lives as long as the job
	// record and keeps every event, so subscribers can replay a
	// finished job's stream in full. Cache-hit aliases share their
	// root's ring. Once the finish record is in the log, the ring is
	// offloaded and the log serves the whole stream.
	ring *stream.Ring
	// key is the content address of a cacheable job (zero otherwise).
	key cache.Key
	// Observability state: the span ring (nil without Config.Obs, which
	// makes its spans inert), the live stage spans, the class label for
	// queue metrics and the telemetry stamps behind the wait/execute
	// histograms. None of it may flow into the report, the event stream
	// or the cache key (enforced by detlint's obspurity rule).
	trace               *obs.Trace
	spanRoot, spanQueue obs.SpanRef
	class               string
	enqAt, execAt       obs.Stamp
}

// JobID is the ID of a daemon's seq-th job: "a-" and the sequence
// number, zero-padded to six digits. Workers and gateways both mint
// their IDs with it.
func JobID(seq int) string { return fmt.Sprintf("a-%06d", seq) }

// ParseJobID returns the sequence number of a job ID, which is "a-"
// followed by decimal digits and nothing else, naming a positive
// number.
func ParseJobID(id string) (int, bool) {
	digits, ok := strings.CutPrefix(id, "a-")
	if !ok || leadingDigits(digits) != len(digits) {
		return 0, false
	}
	seq, err := strconv.Atoi(digits)
	return seq, err == nil && seq > 0
}

// CompareJobIDs orders job IDs by sequence number, where a string
// comparison puts "a-1000000" before "a-999999". JobID pads to six
// digits, so a minted ID with more digits is a later job, and IDs with
// as many digits order as strings. Any other string, such as a stale
// listing cursor, takes the same rule on the digits after its "a-".
func CompareJobIDs(a, b string) int {
	return cmp.Or(cmp.Compare(seqDigits(a), seqDigits(b)), strings.Compare(a, b))
}

// seqDigits counts the digits that follow an ID's "a-".
func seqDigits(id string) int { return leadingDigits(strings.TrimPrefix(id, "a-")) }

// leadingDigits counts the ASCII digits s starts with, a byte at a
// time: strings.TrimLeft with a digit cutset would build the cutset's
// set on every call, and recovery parses every replayed job ID.
func leadingDigits(s string) int {
	n := 0
	for n < len(s) && '0' <= s[n] && s[n] <= '9' {
		n++
	}
	return n
}

// profile is one die class and its shards.
type profile struct {
	Profile
	index int
	// calMisses counts dep-cache calibration misses incurred while
	// building this profile's shards — the profile's cold-start cost.
	calMisses uint64
	// cacheCfg is the profile's canonical die-config JSON, precomputed
	// at build time as cache-key material (cache.ConfigJSON).
	cacheCfg json.RawMessage
}

// shard is one simulated die.
type shard struct {
	id      int
	profile *profile
	sim     *chip.Simulator
	// executed and stolen are this shard's series of the executed and
	// steals counter families.
	executed, stolen *obs.Counter
	// nextClass rotates this shard's scan over the class queues for
	// fairness across classes. Guarded by Service.mu.
	nextClass int
}

// classQueue is the work queue of one compatibility class: the jobs
// whose eligible-profile set is exactly this class's member set. Only
// shards of member profiles ever claim from it.
type classQueue struct {
	key    string
	member []bool // indexed by profile index
	names  []string
	// label is the human-readable class name used as the metrics label
	// ("die40+die64"); profile names joined, stable per class.
	label string
	// queue holds the class's queued jobs, oldest first. Guarded by
	// Service.mu.
	queue []*Job
}

// Service is a live fleet. Create with New, stop with Close.
type Service struct {
	cfg      Config
	profiles []*profile
	shards   []*shard
	start    time.Time
	store    store.Store // Config.Store, or New's private log

	mu        sync.Mutex
	cond      *sync.Cond
	jobs      map[string]*Job
	classes   map[string]*classQueue
	classList []*classQueue
	// byKey is the result-cache index (nil when Config.Cache.Disable):
	// a content key maps to the root job that computes or computed it,
	// queued, running or done. Failed roots, and done roots whose
	// finish record did not persist, leave it.
	byKey    map[cache.Key]*Job
	seq      int
	queued   int
	closed   bool
	draining bool
	// drained closes when a Drain completes: every admitted job reached
	// a terminal state. SSE handlers use it to send shutdown events.
	drained     chan struct{}
	drainedOnce bool
	// running counts claimed jobs not yet finished. Guarded by mu.
	running int

	wg sync.WaitGroup

	// met is the metric set, and with it every counter Stats reports.
	met svcMetrics

	// assign picks the target shard for the n-th submission among the
	// eligible shard ids (round-robin by default); tests override it to
	// force skewed placements.
	assign func(seq int, eligible []int) int
	// run executes a claimed job on a shard; tests override it to
	// control timing without running physics.
	run func(sh *shard, j *Job) (*assay.Report, error)
}

// New builds the fleet and starts one executor goroutine per shard.
// With no Profiles, Config degenerates to the homogeneous pool of
// earlier revisions: Shards dies built from Chip under the profile name
// "default". Building N shards of one profile costs one cage-field
// calibration total: the dep model cache serves every die after the
// first.
func New(cfg Config) (*Service, error) {
	specs := cfg.Profiles
	if len(specs) == 0 {
		specs = []Profile{{Name: "default", Shards: parallel.Degree(cfg.Shards), Chip: cfg.Chip}}
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("service: queue depth %d out of range", cfg.QueueDepth)
	}
	s := &Service{
		cfg: cfg,
		//detlint:allow walltime — uptime base for /v1/stats telemetry, excluded from the bit-identity contract
		start:   time.Now(),
		jobs:    make(map[string]*Job),
		classes: make(map[string]*classQueue),
		drained: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.assign = func(seq int, eligible []int) int { return eligible[seq%len(eligible)] }
	s.run = s.execute
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.met = newSvcMetrics(reg)
	seen := make(map[string]bool, len(specs))
	for i, spec := range specs {
		switch {
		case spec.Name == "":
			return nil, fmt.Errorf("service: profile %d: empty name", i)
		case seen[spec.Name]:
			return nil, fmt.Errorf("service: duplicate profile %q", spec.Name)
		case spec.Shards < 1:
			return nil, fmt.Errorf("service: profile %q: %d shards out of range", spec.Name, spec.Shards)
		}
		seen[spec.Name] = true
		if err := checkTech(spec); err != nil {
			return nil, err
		}
		p := &profile{Profile: spec, index: i}
		if raw, err := cache.ConfigJSON(spec.Chip); err == nil {
			p.cacheCfg = raw
		} else {
			return nil, fmt.Errorf("service: profile %q: %w", spec.Name, err)
		}
		_, missesBefore := dep.CacheStats()
		for k := 0; k < spec.Shards; k++ {
			sim, err := chip.New(spec.Chip)
			if err != nil {
				return nil, fmt.Errorf("service: profile %q shard %d: %w", spec.Name, k, err)
			}
			id := len(s.shards)
			s.shards = append(s.shards, &shard{id: id, profile: p, sim: sim,
				executed: s.met.executed.With(spec.Name, strconv.Itoa(id)),
				stolen:   s.met.steals.With(spec.Name, strconv.Itoa(id))})
		}
		_, missesAfter := dep.CacheStats()
		p.calMisses = missesAfter - missesBefore
		s.profiles = append(s.profiles, p)
	}
	if !cfg.Cache.Disable {
		// The index must exist before recovery replays the log, which
		// registers restored keyed roots and re-enqueued jobs in it.
		s.byKey = make(map[cache.Key]*Job)
	}
	s.store = cfg.Store
	if cfg.Store == nil {
		disk, err := store.OpenTemp()
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		s.store = disk
	}
	// Replay the log before any shard loop starts: restored jobs land
	// in the map / queues with no executor racing the rebuild.
	if err := s.recover(); err != nil {
		if cfg.Store == nil {
			s.store.Close()
		}
		return nil, err
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go s.shardLoop(sh)
	}
	return s, nil
}

// checkTech validates a profile's optional technology node: it must
// exist in the node database and be feasible for the profile's
// electrode pitch and array dimensions.
func checkTech(p Profile) error {
	if p.Tech == "" {
		return nil
	}
	node, err := tech.ByName(p.Tech)
	if err != nil {
		return fmt.Errorf("service: profile %q: %w", p.Name, err)
	}
	req := tech.DefaultRequirements()
	req.ElectrodePitch = p.Chip.Array.Pitch
	req.ArrayCols, req.ArrayRows = p.Chip.Array.Cols, p.Chip.Array.Rows
	if ev := tech.Evaluate(node, req); !ev.Feasible {
		return fmt.Errorf("service: profile %q: node %s infeasible: %s", p.Name, p.Tech, ev.Reason)
	}
	return nil
}

// Shards returns the fleet size in dies.
func (s *Service) Shards() int { return len(s.shards) }

// Profiles returns the fleet's die profiles, in fleet order.
func (s *Service) Profiles() []Profile {
	out := make([]Profile, len(s.profiles))
	for i, p := range s.profiles {
		out[i] = p.Profile
	}
	return out
}

// ProfileConfig returns the chip configuration of the named profile.
// Replaying a job serially under the config of the profile that ran it
// (Job.Profile) reproduces its report bit-for-bit.
func (s *Service) ProfileConfig(name string) (chip.Config, bool) {
	for _, p := range s.profiles {
		if p.Name == name {
			return p.Chip, true
		}
	}
	return chip.Config{}, false
}

// place evaluates the program's effective requirements and full check
// against every profile, returning the eligible set (fleet order) and
// the per-profile rejection reasons.
func (s *Service) place(pr assay.Program) ([]*profile, map[string]string) {
	reqs := pr.EffectiveRequirements()
	eligible := make([]*profile, 0, len(s.profiles))
	reasons := make(map[string]string, len(s.profiles))
	for _, p := range s.profiles {
		if err := p.Check(pr, reqs); err != nil {
			reasons[p.Name] = err.Error()
			continue
		}
		eligible = append(eligible, p)
	}
	return eligible, reasons
}

// shardIDsOf returns the ascending shard ids of the eligible profiles.
func shardIDsOf(shards []*shard, eligible []*profile) []int {
	var ids []int
	for _, p := range eligible {
		for _, sh := range shards {
			if sh.profile == p {
				ids = append(ids, sh.id)
			}
		}
	}
	sort.Ints(ids)
	return ids
}

// newJob builds a job record with what every record shares, however
// it is born: ID, program, seed, eligible set, no shard (Assigned and
// Shard -1) and whether recovery restored it. Callers set the rest:
// status, completion channel, event ring and their own path's fields.
func newJob(id string, pr assay.Program, seed uint64, eligible []string, recovered bool) *Job {
	return &Job{ID: id, Program: pr.Name, Seed: seed, Eligible: eligible,
		Assigned: -1, Shard: -1, Recovered: recovered, pr: pr}
}

// enqueueLocked creates the job record under the given (already WAL'd)
// ID, attaches its event ring, publishes the placement event, registers
// cacheable jobs in the result-cache index and queues the job. The ID
// must be JobID(s.seq+1); enqueueLocked advances s.seq.
// traceParent is the foreign parent span from an X-Assay-Trace header
// ("" for local and recovered submissions). Caller holds s.mu.
func (s *Service) enqueueLocked(id string, pr assay.Program, seed uint64, target int, eligible []*profile, recovered bool, key cache.Key, traceParent string) *Job {
	cls := s.classFor(eligible)
	j := newJob(id, pr, seed, cls.names, recovered)
	j.Status, j.Assigned = StatusQueued, target
	j.done, j.ring = make(chan struct{}), stream.NewRing()
	j.key, j.class, j.enqAt = key, cls.label, obs.Now()
	s.startTrace(j, traceParent)
	if !key.Zero() {
		if _, dup := s.byKey[key]; !dup {
			// First writer wins: recovery can legally re-enqueue two
			// identical jobs admitted before the cache existed (or
			// while it was disabled); the extra one just executes.
			s.byKey[key] = j
		}
	}
	// Event 1 of every job's stream: admission and placement.
	j.ring.Publish(stream.Event{Type: stream.JobPlaced, Job: &stream.JobInfo{
		ID: j.ID, Program: pr.Name, Seed: seed, Eligible: cls.names,
	}})
	s.seq++
	s.jobs[j.ID] = j
	cls.queue = append(cls.queue, j)
	s.queued++
	j.spanQueue = j.trace.Start("queue", j.spanRoot.ID(), obs.Attr{K: "class", V: cls.label})
	s.met.queueDepth.With(cls.label).Set(float64(len(cls.queue)))
	s.cond.Broadcast()
	return j
}

// classFor returns (creating on first use) the queue of the
// compatibility class whose member set is exactly the given profiles.
// The key is built from profile indices, not names, so no profile
// naming scheme can collide two distinct classes. Caller holds s.mu.
func (s *Service) classFor(eligible []*profile) *classQueue {
	parts := make([]string, len(eligible))
	for i, p := range eligible {
		parts[i] = strconv.Itoa(p.index)
	}
	key := strings.Join(parts, "+")
	if cls, ok := s.classes[key]; ok {
		return cls
	}
	names := make([]string, len(eligible))
	for i, p := range eligible {
		names[i] = p.Name
	}
	cls := &classQueue{key: key, member: make([]bool, len(s.profiles)), names: names,
		label: strings.Join(names, "+")}
	for _, p := range eligible {
		cls.member[p.index] = true
	}
	s.classes[key] = cls
	s.classList = append(s.classList, cls)
	return cls
}

// Get returns a snapshot of the job, or false if the ID is unknown.
func (s *Service) Get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Wait blocks until the job finishes (or the service closes with the
// job still queued) and returns its final snapshot.
func (s *Service) Wait(id string) (Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Job{}, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	<-j.done
	snap, _ := s.Get(id)
	return snap, nil
}

// WaitTimeout blocks until the job finishes or the timeout elapses,
// returning the job's snapshot at that moment and whether it reached a
// terminal state. It is the engine behind the HTTP long-poll
// (GET /v1/assays/{id}?wait=1).
func (s *Service) WaitTimeout(id string, d time.Duration) (Job, bool, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Job{}, false, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-j.done:
	case <-timer.C:
	}
	// The snapshot decides: when both cases are ready, select may take
	// the timer's although the job is terminal.
	snap, _ := s.Get(id)
	return snap, snap.Status == StatusDone || snap.Status == StatusFailed, nil
}

// Close stops accepting submissions, fails all still-queued jobs, waits
// for in-flight executions and closes the job log. It is idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	for _, cls := range s.classList {
		for _, j := range cls.queue {
			s.queued--
			// No finish record: a restart re-executes the job.
			s.endLocked(j, nil, nil, ErrClosed)
			j.spanQueue.End()
			j.spanRoot.End()
			close(j.done)
		}
		cls.queue = nil
		s.met.queueDepth.With(cls.label).Set(0)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	// The shard loops made every append; a failed close loses no record.
	_ = s.store.Close()
}

// shardLoop claims work for one die until the service closes: any job
// from a compatibility class the shard's profile belongs to, scanning
// classes round-robin, then sleeping until a submission arrives.
func (s *Service) shardLoop(sh *shard) {
	defer s.wg.Done()
	for {
		j, stolen := s.claim(sh)
		if j == nil {
			return
		}
		rep, err := s.run(sh, j)
		s.finish(sh, j, stolen, rep, err)
	}
}

// claim blocks until a job is available for sh or the service closes
// (returning nil). The second result reports whether the job had been
// designated to a different shard (a steal).
func (s *Service) claim(sh *shard) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if j := s.popFor(sh); j != nil {
			s.markRunning(sh, j)
			return j, j.Stolen
		}
		if s.closed {
			return nil, false
		}
		s.cond.Wait()
	}
}

// popFor pops the oldest job from the first non-empty class queue the
// shard's profile belongs to, starting at the shard's rotation cursor
// so no class is starved. Classes the profile is not a member of are
// never touched — the confinement that makes illegal stealing
// impossible. Caller holds s.mu.
func (s *Service) popFor(sh *shard) *Job {
	n := len(s.classList)
	for k := 0; k < n; k++ {
		cls := s.classList[(sh.nextClass+k)%n]
		if !cls.member[sh.profile.index] {
			continue
		}
		if len(cls.queue) > 0 {
			j := cls.queue[0]
			cls.queue[0] = nil // release the reference
			cls.queue = cls.queue[1:]
			sh.nextClass = (sh.nextClass + k + 1) % n
			s.met.queueDepth.With(cls.label).Set(float64(len(cls.queue)))
			return j
		}
	}
	return nil
}

// markRunning transitions a claimed job. Caller holds s.mu.
func (s *Service) markRunning(sh *shard, j *Job) {
	s.queued--
	j.Status = StatusRunning
	j.Shard = sh.id
	j.Profile = sh.profile.Name
	j.Stolen = sh.id != j.Assigned
	s.running++
	j.spanQueue.End()
	s.met.queueWait.With(j.class).Observe(obs.Since(j.enqAt))
	j.execAt = obs.Now()
	// Event 2: a shard claimed the job. The payload names the profile
	// (part of the determinism contract — it fixes the die config) but
	// never the shard: which die of a profile runs a job is a
	// scheduling accident, and the event stream must be bit-identical
	// whether the job was stolen or not.
	j.ring.Publish(stream.Event{Type: stream.JobStarted,
		Job: &stream.JobInfo{ID: j.ID, Profile: sh.profile.Name}})
}

// finish records a completed execution and wakes Wait-ers. The report
// is encoded here, once, outside the service lock; a report that
// cannot be encoded fails the job.
func (s *Service) finish(sh *shard, j *Job, stolen bool, rep *assay.Report, err error) {
	var raw json.RawMessage
	if err == nil {
		if raw, err = json.Marshal(rep); err != nil {
			err = fmt.Errorf("service: encoding report: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sh.executed.Inc()
	if stolen {
		sh.stolen.Inc()
	}
	s.running--
	s.met.execute.With(sh.profile.Name).Observe(obs.Since(j.execAt))
	j.trace.Add("execute", j.spanRoot.ID(), j.execAt, obs.Now(),
		obs.Attr{K: "profile", V: sh.profile.Name})
	finSpan := j.trace.Start("finish", j.spanRoot.ID())
	s.endLocked(j, rep, raw, err)
	pAt := obs.Now()
	persisted := PersistFinish(s.store, j, j.ring, j.key, s.met.persistErrors)
	s.met.persist.With().Observe(obs.Since(pAt))
	j.trace.Add("persist", finSpan.ID(), pAt, obs.Now())
	// A done root whose finish record did not persist leaves the
	// result-cache index too, since no restart could resolve an alias
	// of it.
	if !persisted && s.byKey[j.key] == j {
		delete(s.byKey, j.key)
	}
	finSpan.End()
	j.spanRoot.End()
	close(j.done)
	// Wake Drain waiters (and any shard parked on the queue).
	s.cond.Broadcast()
}

// endLocked makes a job terminal, done with rep's report encoded as
// raw or failed with err: it sets the status and the report or error,
// counts the job, publishes the stream's one terminal frame, closes the
// ring and takes a failed root out of the result-cache index, so a
// retry executes (failures are often environmental: close, drain).
// finish, Close and failRecoveredLocked end every job that is not born
// terminal through it; persisting the finish record, the spans and
// closing done stay with them. Caller holds s.mu.
func (s *Service) endLocked(j *Job, rep *assay.Report, raw json.RawMessage, err error) {
	if err != nil {
		j.Status, j.Error = StatusFailed, err.Error()
		s.met.failed.Inc()
		j.ring.Publish(stream.Event{Type: stream.JobFailed,
			Job: &stream.JobInfo{ID: j.ID}, Err: j.Error})
	} else {
		j.Status, j.Report = StatusDone, raw
		s.met.done.Inc()
		j.ring.Publish(stream.Event{Type: stream.JobDone, T: rep.Duration,
			Job: &stream.JobInfo{
				ID: j.ID, Duration: rep.Duration, Trapped: rep.Trapped,
				Steps: rep.Steps, ScanErrors: rep.ScanErrors,
			}})
	}
	j.ring.Close()
	if err != nil && s.byKey[j.key] == j {
		delete(s.byKey, j.key)
	}
}

// PersistFinish appends the terminal record of the job snap describes
// to st: its status, profile, eligible set, error and report, the key
// of a done cacheable root, and the complete event stream off ring, as
// the bytes the ring holds. It then offloads the ring to the log: the
// ring keeps no events, and every subscriber reads the stream from the
// log as after a restart. Both roles end a job through it: a worker
// with the job's own ring, under its lock (restoreFinishedLocked
// restores what it wrote), and a gateway with a routed job's mirror,
// outside its lock, since finish records need no log order. Only a
// whole stream is persisted: a mirror that an upstream gap moved past
// seq 1 (stream.Ring.Feed) appends nothing and keeps its events and its
// backfill. So does a ring whose append fails, which counts once in
// errs; the job itself completes regardless. It reports whether the
// record was appended.
func PersistFinish(st store.Store, snap *Job, ring *stream.Ring, key cache.Key, errs *obs.Counter) bool {
	evs := ring.Events()
	if uint64(len(evs)) != ring.Last() {
		return false
	}
	rec := store.FinishRecord{
		ID:       snap.ID,
		Status:   string(snap.Status),
		Profile:  snap.Profile,
		Eligible: snap.Eligible,
		Error:    snap.Error,
		Report:   snap.Report,
		Events:   evs,
	}
	if !key.Zero() && snap.Status == StatusDone {
		// A restarted worker rebuilds its result-cache index from keyed
		// roots.
		rec.Key = key.String()
	}
	if err := st.LogFinish(rec); err != nil {
		errs.Inc()
		return false
	}
	ring.Offload(LogBackfill(st, snap.ID))
	return true
}

// LogBackfill returns a ring backfill reading job id's persisted event
// stream back from st on demand, so finished-job history costs no
// memory: each call is one read of the finish record
// (store.Disk.Events), and each event comes back as its sequence
// number, its type and its bytes, not decoded. Events are stored 1..n
// in order, making the range a simple slice.
func LogBackfill(st store.Store, id string) func(from, to uint64) []stream.Event {
	return func(from, to uint64) []stream.Event {
		evs, err := st.Events(id)
		if err != nil {
			return nil
		}
		if from < 1 {
			from = 1
		}
		if to > uint64(len(evs)) {
			to = uint64(len(evs))
		}
		if from > to {
			return nil
		}
		return evs[from-1 : to]
	}
}

// execute is the production runner: reset the die to the request seed,
// run the program with the job's event ring attached. Reset + ExecuteOn
// is bit-identical to a fresh assay.Execute with the profile's
// Chip.Seed = seed, which is the service's determinism contract — and
// because every emission happens at a deterministic point of that run,
// the event stream inherits the same guarantee.
func (s *Service) execute(sh *shard, j *Job) (*assay.Report, error) {
	if err := sh.sim.Reset(j.Seed); err != nil {
		return nil, err
	}
	return assay.ExecuteOnStream(sh.sim, j.pr, j.ring.Sink())
}

// ShardStats is one die's cumulative dispatch record.
type ShardStats struct {
	Shard   int    `json:"shard"`
	Profile string `json:"profile"`
	// Executed counts jobs this shard ran; Stolen counts how many of
	// those had been designated to a sibling shard.
	Executed uint64 `json:"executed"`
	Stolen   uint64 `json:"stolen"`
}

// ProfileStats is one die class's cumulative record: size, throughput
// and calibration amortization.
type ProfileStats struct {
	Profile string `json:"profile"`
	Tech    string `json:"tech,omitempty"`
	Shards  int    `json:"shards"`
	Cols    int    `json:"cols"`
	Rows    int    `json:"rows"`
	// Executed counts jobs run by this profile's shards; Stolen counts
	// how many had been designated to a different shard.
	Executed uint64 `json:"executed"`
	Stolen   uint64 `json:"stolen"`
	// Queued is the instantaneous backlog this profile's shards may
	// claim (the sum over its compatibility classes, so overlapping
	// profiles both count a shared class).
	Queued int `json:"queued"`
	// JobsPerSecond is Executed over service uptime.
	JobsPerSecond float64 `json:"jobs_per_second"`
	// CalibrationMisses is the dep-cache misses paid building this
	// profile's shards — a healthy profile shows 1 (or 0 when an
	// earlier profile shares its cage spec), however many shards it
	// has.
	CalibrationMisses uint64 `json:"calibration_misses"`
}

// ClassStats is the instantaneous backlog of one compatibility class.
type ClassStats struct {
	// Profiles lists the member profiles, in fleet order.
	Profiles []string `json:"profiles"`
	// Queued is the class queue depth.
	Queued int `json:"queued"`
}

// PlannerStats aggregates routing provenance for one planner across the
// whole fleet: plan counts, encoded motion, and cumulative wall-clock
// planning time (chip.PlannerStat summed over dies).
type PlannerStats struct {
	Planner string `json:"planner"`
	Plans   uint64 `json:"plans"`
	Steps   uint64 `json:"steps"`
	Moves   uint64 `json:"moves"`
	// PlanSeconds is wall-clock planning time — the per-planner timing
	// counter operators watch to compare routing planners under real
	// load.
	PlanSeconds float64 `json:"plan_seconds"`
}

// Stats is a point-in-time service snapshot (GET /v1/stats). Done and
// Failed count terminal jobs, including those a durable service
// restored from its log at startup.
type Stats struct {
	Shards     int    `json:"shards"`
	QueueDepth int    `json:"queue_depth"`
	Queued     int    `json:"queued"`
	Running    int64  `json:"running"`
	Done       uint64 `json:"done"`
	Failed     uint64 `json:"failed"`
	// Recovered counts jobs restored from the durable store at startup
	// (both finished-from-disk and re-executed), which stays zero
	// without a data directory; PersistErrors counts failed store
	// appends: refused submissions, and terminal records of jobs that
	// still completed in memory.
	Recovered     uint64 `json:"recovered,omitempty"`
	PersistErrors uint64 `json:"persist_errors,omitempty"`
	// Draining reports that the service stopped admitting and is
	// finishing its backlog (see Drain).
	Draining bool `json:"draining,omitempty"`
	// CalibrationHits/Misses are the process-wide dep model-cache
	// counters: a healthy fleet shows misses ≈ the number of distinct
	// cage specs across profiles.
	CalibrationHits   uint64         `json:"calibration_hits"`
	CalibrationMisses uint64         `json:"calibration_misses"`
	UptimeSeconds     float64        `json:"uptime_seconds"`
	Profiles          []ProfileStats `json:"profiles"`
	PerShard          []ShardStats   `json:"per_shard"`
	// Classes lists the live compatibility classes and their backlogs,
	// in creation order; empty until a job is submitted.
	Classes []ClassStats `json:"classes,omitempty"`
	// Planners lists per-planner routing counters, sorted by name;
	// empty until some job executes a routed (gather/move) step.
	Planners []PlannerStats `json:"planners,omitempty"`
	// Store is the job log's snapshot: -data's or the private one's.
	Store *store.Stats `json:"store,omitempty"`
	// Cache is the result-cache block; absent when the cache is
	// disabled.
	Cache *CacheStats `json:"cache,omitempty"`
}

// Stats snapshots the service: the counters are read from the metric
// set /v1/metrics serves, the rest are instantaneous reads.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	hits, misses := dep.CacheStats()
	//detlint:allow walltime — uptime is /v1/stats telemetry, excluded from the bit-identity contract
	uptime := time.Since(s.start).Seconds()
	st := Stats{
		Shards:            len(s.shards),
		QueueDepth:        s.cfg.QueueDepth,
		Queued:            s.queued,
		Running:           int64(s.running),
		Done:              uint64(s.met.done.Value()),
		Failed:            uint64(s.met.failed.Value()),
		Draining:          s.draining,
		Recovered:         uint64(s.met.recovered.Value()),
		PersistErrors:     uint64(s.met.persistErrors.Value()),
		CalibrationHits:   hits,
		CalibrationMisses: misses,
		UptimeSeconds:     uptime,
	}
	sst := s.store.Stats()
	st.Store = &sst
	if s.byKey != nil {
		st.Cache = &CacheStats{
			Entries:   len(s.byKey),
			Hits:      uint64(s.met.hit.Value()),
			Misses:    uint64(s.met.miss.Value()),
			Coalesced: uint64(s.met.coalesced.Value()),
		}
	}
	planners := make(map[string]PlannerStats)
	perProfile := make([]ProfileStats, len(s.profiles))
	for i, p := range s.profiles {
		perProfile[i] = ProfileStats{
			Profile:           p.Name,
			Tech:              p.Tech,
			Shards:            p.Shards,
			Cols:              p.Chip.Array.Cols,
			Rows:              p.Chip.Array.Rows,
			CalibrationMisses: p.calMisses,
		}
	}
	for _, sh := range s.shards {
		executed, stolen := uint64(sh.executed.Value()), uint64(sh.stolen.Value())
		st.PerShard = append(st.PerShard, ShardStats{
			Shard:    sh.id,
			Profile:  sh.profile.Name,
			Executed: executed,
			Stolen:   stolen,
		})
		perProfile[sh.profile.index].Executed += executed
		perProfile[sh.profile.index].Stolen += stolen
		for name, ps := range sh.sim.PlanStats() {
			agg := planners[name]
			agg.Planner = name
			agg.Plans += ps.Plans
			agg.Steps += ps.Steps
			agg.Moves += ps.Moves
			agg.PlanSeconds += ps.PlanSeconds
			planners[name] = agg
		}
	}
	for _, cls := range s.classList {
		depth := len(cls.queue)
		st.Classes = append(st.Classes, ClassStats{Profiles: cls.names, Queued: depth})
		for i := range s.profiles {
			if cls.member[i] {
				perProfile[i].Queued += depth
			}
		}
	}
	if uptime > 0 {
		for i := range perProfile {
			perProfile[i].JobsPerSecond = float64(perProfile[i].Executed) / uptime
		}
	}
	st.Profiles = perProfile
	names := make([]string, 0, len(planners))
	for name := range planners {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st.Planners = append(st.Planners, planners[name])
	}
	return st
}

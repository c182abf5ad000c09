package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"biochip/internal/assay"
	"biochip/internal/chip"
	"biochip/internal/stream"
)

// profileName is the die profile every benchmark daemon runs: the
// homogeneous pool assayd builds from -cols/-rows, and the member
// profile the gateway workload declares.
const profileName = "default"

// expected is what a serial replay of one (program, seed) pair says
// the service must return: the report bytes and the event stream in
// canonical form (one JSON line per event, wall stamp and envelope job
// IDs blanked).
type expected struct {
	report []byte
	events [][]byte
	err    error
	ops    opTimes // traced runs only
}

// opTimes is one replay's execution broken down by operation kind,
// with routing planning split out of the routed ops.
type opTimes struct {
	byKind map[string]time.Duration // op bracket durations, summed per kind
	plan   time.Duration            // Planner.Plan, from the die's PlanStats
	total  time.Duration            // the whole ExecuteOnStream call
}

// replay executes every pair serially on its own simulator, on
// `workers` goroutines, under the config the daemons run. With timed
// set it also records per-operation spans through the stream sink.
func replay(cfg chip.Config, pairs []*pair, workers int, timed bool) ([]expected, error) {
	out := make([]expected, len(pairs))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sim, err := chip.New(cfg)
			if err != nil {
				errs[w] = err
				return
			}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(pairs) {
					return
				}
				out[i] = replayOne(sim, pairs[i], timed)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	return out, nil
}

func replayOne(sim *chip.Simulator, p *pair, timed bool) expected {
	if err := sim.Reset(p.seed); err != nil {
		return expected{err: err}
	}
	var c stream.Collector
	sink := c.Sink()
	var ops opTimes
	if timed {
		ops.byKind = make(map[string]time.Duration)
		var opStart time.Time
		collect := sink
		sink = func(ev stream.Event) {
			switch ev.Type {
			case stream.OpStarted:
				opStart = time.Now()
			case stream.OpFinished:
				ops.byKind[ev.Op.Kind] += time.Since(opStart)
			}
			collect(ev)
		}
	}
	plan0 := planSeconds(sim)
	t0 := time.Now()
	rep, err := assay.ExecuteOnStream(sim, p.program, sink)
	ops.total = time.Since(t0)
	ops.plan = time.Duration((planSeconds(sim) - plan0) * float64(time.Second))
	if err != nil {
		return expected{err: err}
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		return expected{err: err}
	}
	evs := []stream.Event{
		{Seq: 1, Type: stream.JobPlaced, Job: &stream.JobInfo{
			Program: p.program.Name, Seed: p.seed, Eligible: []string{profileName}}},
		{Seq: 2, Type: stream.JobStarted, Job: &stream.JobInfo{Profile: profileName}},
	}
	for _, ev := range c.Events {
		ev.Seq += 2
		evs = append(evs, ev)
	}
	evs = append(evs, stream.Event{Seq: uint64(len(evs) + 1), Type: stream.JobDone, T: rep.Duration,
		Job: &stream.JobInfo{Duration: rep.Duration, Trapped: rep.Trapped, Steps: rep.Steps, ScanErrors: rep.ScanErrors}})
	exp := expected{report: raw, ops: ops}
	for _, ev := range evs {
		line, err := json.Marshal(ev)
		if err != nil {
			return expected{err: err}
		}
		exp.events = append(exp.events, line)
	}
	return exp
}

// planSeconds is the die's cumulative routing-planning time.
func planSeconds(sim *chip.Simulator) float64 {
	total := 0.0
	for _, ps := range sim.PlanStats() {
		total += ps.PlanSeconds
	}
	return total
}

// verdict is the check of one cycle against its replay.
type verdict struct {
	ok     bool
	gaps   int    // gap frames received
	failed bool   // the job ended in job.failed
	reason string // why ok is false
	events []stream.Event
}

// check compares the job record and event stream one cycle received
// with the replay of its pair. Envelope job IDs are the service's to
// choose, so the check only requires them to agree with each other.
func check(events, record []byte, exp expected) verdict {
	if exp.err != nil {
		return verdict{reason: "replay: " + exp.err.Error()}
	}
	v := checkStream(events, exp)
	// The kept record lacks its leading "id" field.
	var job struct {
		Status  string          `json:"status"`
		Profile string          `json:"profile"`
		Error   string          `json:"error"`
		Report  json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(append([]byte{'{'}, record[1:]...), &job); err != nil {
		return verdict{reason: "job record: " + err.Error()}
	}
	switch {
	case v.reason != "":
	case job.Status != "done":
		v.ok, v.reason = false, fmt.Sprintf("job status %q: %s", job.Status, job.Error)
	case job.Profile != profileName:
		v.ok, v.reason = false, fmt.Sprintf("job ran on profile %q", job.Profile)
	case !bytes.Equal(job.Report, exp.report):
		v.ok, v.reason = false, "report differs from the serial replay"
	}
	return v
}

// checkStream compares a raw SSE body with the replay's canonical
// event stream.
func checkStream(raw []byte, exp expected) verdict {
	v := verdict{}
	sr := sseReader{r: bufio.NewReader(bytes.NewReader(raw))}
	id := ""
	var lines [][]byte
	for {
		f, err := sr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return verdict{reason: "event stream: " + err.Error()}
		}
		var ev stream.Event
		if err := json.Unmarshal(f.data, &ev); err != nil {
			return verdict{reason: "event: " + err.Error()}
		}
		switch {
		case f.event == stream.Gap:
			v.gaps++
			continue
		case f.event == stream.JobFailed:
			v.failed = true
		case !f.hasID || f.id != ev.Seq || f.event != ev.Type:
			return verdict{reason: fmt.Sprintf("frame id %d/%v event %q does not match payload seq %d type %q",
				f.id, f.hasID, f.event, ev.Seq, ev.Type)}
		}
		v.events = append(v.events, ev)
		if ev.Job != nil {
			if id == "" {
				id = ev.Job.ID
			}
			if ev.Job.ID != id {
				return verdict{reason: fmt.Sprintf("event %d names job %q, stream began with %q", ev.Seq, ev.Job.ID, id)}
			}
			j := *ev.Job
			j.ID = ""
			ev.Job = &j
		}
		ev.Wall = 0
		line, err := json.Marshal(ev)
		if err != nil {
			return verdict{reason: err.Error()}
		}
		lines = append(lines, line)
	}
	switch {
	case v.gaps > 0 || v.failed:
		v.reason = fmt.Sprintf("%d gap frames, job.failed %v", v.gaps, v.failed)
	case len(lines) != len(exp.events):
		v.reason = fmt.Sprintf("%d events, replay has %d", len(lines), len(exp.events))
	default:
		for i := range lines {
			if !bytes.Equal(lines[i], exp.events[i]) {
				v.reason = fmt.Sprintf("event %d differs from the replay:\n got  %s\n want %s", i+1, lines[i], exp.events[i])
				return v
			}
		}
		v.ok = true
	}
	return v
}

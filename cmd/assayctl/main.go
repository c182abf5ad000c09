// Command assayctl is the shell client for the assayd daemon: it
// submits assay programs (the JSON wire format of docs/assay-format.md),
// waits for completion, watches live progress streams, lists jobs,
// fetches job status and reads service stats.
//
// Submissions that hit the daemon's bounded queue (429) are retried
// with the backoff the server advertises in its Retry-After header —
// jittered ±20% so a herd of clients retrying the same refusal
// doesn't stampede in lockstep — and the retry message renders the
// per-class backlog the server piggybacks on the refusal, so the
// operator sees *what* the queue is full of. Waiting uses the daemon's
// long-poll (GET /v1/assays/{id}?wait=1) instead of busy-polling.
// Completed jobs report their profile placement — which die profiles
// were eligible and which one executed.
//
// Every subcommand works identically against a federation gateway
// (docs/federation.md), whose endpoints are wire-compatible; health
// additionally renders the gateway's per-member fleet view.
//
// watch follows a job's Server-Sent-Events stream
// (GET /v1/assays/{id}/events, docs/streaming.md), rendering each event
// on one line (or raw NDJSON with -o json). A dropped connection is
// resumed with the standard Last-Event-ID header, so the rendered
// sequence stays gap-free and duplicate-free. `watch latest` resolves
// the newest job through the listing endpoint first.
//
// Usage:
//
//	assayctl [-addr URL] [-v] submit [-seed N] [-wait] [-retries N] prog.json
//	assayctl [-addr URL] [-v] get JOB_ID
//	assayctl [-addr URL] [-v] wait JOB_ID
//	assayctl [-addr URL] [-v] watch [-o json] [-from SEQ] [-retries N] JOB_ID|latest
//	assayctl [-addr URL] [-v] trace [-o text|json] JOB_ID
//	assayctl [-addr URL] [-v] list [-status S] [-limit N] [-after ID] [-newest]
//	assayctl [-addr URL] [-v] stats [-o text|json]
//	assayctl [-addr URL] [-v] health [-o text|json]
//
// Duplicate submissions may be answered from the daemon's
// content-addressed result cache (docs/caching.md); submit reports the
// provenance ("served from cache", "attached to identical in-flight
// job") on stderr, and stats renders the cache counters with their hit
// rate.
//
// trace renders a job's span tree (GET /v1/assays/{id}/trace,
// docs/observability.md) — the timed stages the job moved through,
// stitched across the federation hop when the daemon is a gateway. The
// global -v flag logs every request's wall latency and each
// retry/backoff decision to stderr.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"biochip/internal/federation"
	"biochip/internal/obs"
	"biochip/internal/rng"
	"biochip/internal/service"
	"biochip/internal/stream"
)

// verbose is the global -v switch: per-request wall latency and
// retry/backoff decisions go to stderr.
var verbose bool

// vlogf logs one -v diagnostic line to stderr.
func vlogf(format string, a ...interface{}) {
	if verbose {
		fmt.Fprintf(os.Stderr, "assayctl: "+format+"\n", a...)
	}
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8547", "assayd base URL")
	flag.BoolVar(&verbose, "v", false, "log request latencies and retry decisions to stderr")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	var err error
	switch args[0] {
	case "submit":
		err = cmdSubmit(*addr, args[1:])
	case "get":
		err = cmdGet(*addr, args[1:])
	case "wait":
		err = cmdWait(*addr, args[1:])
	case "watch":
		err = cmdWatch(*addr, args[1:])
	case "trace":
		err = cmdTrace(*addr, args[1:])
	case "list":
		err = cmdList(*addr, args[1:])
	case "stats":
		err = cmdStats(*addr, args[1:])
	case "health":
		err = cmdHealth(*addr, args[1:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "assayctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  assayctl [-addr URL] [-v] submit [-seed N] [-wait] [-retries N] prog.json
  assayctl [-addr URL] [-v] get JOB_ID
  assayctl [-addr URL] [-v] wait JOB_ID
  assayctl [-addr URL] [-v] watch [-o json] [-from SEQ] [-retries N] JOB_ID|latest
  assayctl [-addr URL] [-v] trace [-o text|json] JOB_ID
  assayctl [-addr URL] [-v] list [-status S] [-limit N] [-after ID] [-newest]
  assayctl [-addr URL] [-v] stats [-o text|json]
  assayctl [-addr URL] [-v] health [-o text|json]`)
	os.Exit(2)
}

func cmdSubmit(addr string, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "request seed (replaying it reproduces the result bit-for-bit)")
	wait := fs.Bool("wait", false, "block until the job finishes and print the job record")
	retries := fs.Int("retries", 8, "max retries when the queue is full (429), honoring Retry-After")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("submit needs exactly one program file")
	}
	prog, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	body, err := json.Marshal(map[string]json.RawMessage{
		"seed":    json.RawMessage(fmt.Sprint(*seed)),
		"program": json.RawMessage(prog),
	})
	if err != nil {
		return err
	}
	sub, err := submitWithBackoff(addr, body, *retries)
	if err != nil {
		return err
	}
	if len(sub.Eligible) > 0 {
		fmt.Fprintf(os.Stderr, "assayctl: %s eligible profiles: %s\n",
			sub.ID, strings.Join(sub.Eligible, ", "))
	}
	// Cache provenance (docs/caching.md): a hit returns a finished alias
	// of an earlier identical job; a coalesced submission attaches to an
	// identical job already in flight.
	switch sub.Cache {
	case "hit":
		fmt.Fprintf(os.Stderr, "assayctl: %s served from cache (result of %s)\n", sub.ID, sub.DedupOf)
	case "coalesced":
		fmt.Fprintf(os.Stderr, "assayctl: attached to identical in-flight job %s\n", sub.ID)
	}
	if !*wait {
		fmt.Println(sub.ID)
		return nil
	}
	return waitUntilDone(addr, sub.ID)
}

// submitResult decodes a submit reply: the accepted submission, or the
// error envelope of a refusal.
type submitResult struct {
	service.SubmitResult
	Error string `json:"error"`
}

// parseQueueFull decodes a 429 refusal body — the error envelope with
// the server's queue occupancy and per-class backlog — tolerantly: a
// malformed, truncated or empty body yields a zero value (rendering as
// nothing) rather than an error, so the retry loop degrades to the
// plain Retry-After backoff instead of aborting on a mangled proxy
// response.
func parseQueueFull(r io.Reader) service.ErrorBody {
	var qf service.ErrorBody
	if err := json.NewDecoder(r).Decode(&qf); err != nil {
		// A partial decode can leave fields half-populated; keep only
		// the error text so the backlog renders as nothing.
		return service.ErrorBody{Error: qf.Error}
	}
	if qf.Queued != nil && *qf.Queued < 0 {
		qf.Queued = nil
	}
	return qf
}

// renderBacklog formats a 429 body's backlog block for the retry
// message: "16/16 queued (die40: 12, die40+die48: 4)".
func renderBacklog(qf service.ErrorBody) string {
	if qf.Queued == nil {
		return ""
	}
	s := fmt.Sprintf(", %d/%d queued", *qf.Queued, qf.QueueDepth)
	if len(qf.Backlog) == 0 {
		return s
	}
	classes := make([]string, len(qf.Backlog))
	for i, c := range qf.Backlog {
		classes[i] = fmt.Sprintf("%s: %d", strings.Join(c.Profiles, "+"), c.Queued)
	}
	return s + " (" + strings.Join(classes, ", ") + ")"
}

// submitWithBackoff POSTs the submission, sleeping out each 429 for the
// duration the server advertises in Retry-After (default 1 s) before
// retrying, up to the retry budget. Each sleep is jittered ±20% —
// deterministically per (process, attempt), so a run is reproducible
// while concurrent clients still spread out — and the retry message
// renders the per-class backlog from the refusal body.
func submitWithBackoff(addr string, body []byte, retries int) (submitResult, error) {
	var sub submitResult
	// One draw per attempt: deterministic for a given process, but
	// distinct across concurrent clients (seeded by pid).
	jitter := rng.Substream(uint64(os.Getpid()), 0x6a697474657200)
	for attempt := 0; ; attempt++ {
		start := time.Now()
		resp, err := http.Post(addr+"/v1/assays", "application/json", bytes.NewReader(body))
		if err != nil {
			return sub, err
		}
		vlogf("POST /v1/assays → %d in %v", resp.StatusCode,
			time.Since(start).Round(time.Millisecond))
		if resp.StatusCode == http.StatusTooManyRequests {
			base := retryAfter(resp)
			qf := parseQueueFull(resp.Body)
			resp.Body.Close()
			if attempt >= retries {
				return sub, fmt.Errorf("queue full after %d attempts%s", attempt+1, renderBacklog(qf))
			}
			backoff := time.Duration(float64(base) * jitter.Uniform(0.8, 1.2))
			vlogf("backoff: Retry-After %v, jittered to %v (attempt %d/%d)",
				base, backoff.Round(time.Millisecond), attempt+1, retries)
			fmt.Fprintf(os.Stderr, "assayctl: queue full%s, retrying in %v (%d/%d)\n",
				renderBacklog(qf), backoff.Round(time.Millisecond), attempt+1, retries)
			time.Sleep(backoff)
			continue
		}
		if err := decode(resp, &sub); err != nil {
			return sub, err
		}
		if sub.Error != "" {
			return sub, fmt.Errorf("%s: %s", resp.Status, sub.Error)
		}
		return sub, nil
	}
}

// retryAfter reads the server's backoff hint in seconds, defaulting to
// one second when absent or unparsable.
func retryAfter(resp *http.Response) time.Duration {
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return time.Second
}

func cmdGet(addr string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("get needs exactly one job ID")
	}
	return printJSON(addr + "/v1/assays/" + args[0])
}

func cmdWait(addr string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("wait needs exactly one job ID")
	}
	return waitUntilDone(addr, args[0])
}

// cmdTrace fetches GET /v1/assays/{id}/trace and renders the span
// tree: one line per span, children indented under their parent, with
// each span's wall duration. Against a gateway the tree includes the
// member's spans stitched under the forward span
// (docs/observability.md). 404 means the daemon runs without
// observability or the job predates it.
func cmdTrace(addr string, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	output := fs.String("o", "text", "output mode: text (rendered tree) or json (raw trace document)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("trace needs exactly one job ID")
	}
	url := addr + "/v1/assays/" + fs.Arg(0) + "/trace"
	if *output == "json" {
		return printJSON(url)
	}
	if *output != "text" {
		return fmt.Errorf("unknown output mode %q", *output)
	}
	raw, code, err := fetch(url)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%d: %s", code, strings.TrimSpace(string(raw)))
	}
	var doc obs.TraceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return err
	}
	for _, line := range renderTrace(doc) {
		fmt.Println(line)
	}
	return nil
}

// renderTrace flattens a trace document into indented tree lines.
// Children sit under their parent in recording order; spans whose
// parent is foreign (the trace's upstream reference) or unknown render
// at the root. Durations are wall time; an unfinished span shows
// "open".
func renderTrace(doc obs.TraceDoc) []string {
	head := fmt.Sprintf("trace %s: %d spans", doc.Job, len(doc.Spans))
	if doc.Parent != "" {
		head += ", parent " + doc.Parent
	}
	if doc.Dropped > 0 {
		head += fmt.Sprintf(", %d dropped", doc.Dropped)
	}
	lines := []string{head}
	known := make(map[string]bool, len(doc.Spans))
	for _, sp := range doc.Spans {
		known[sp.ID] = true
	}
	children := make(map[string][]obs.Span)
	var roots []obs.Span
	for _, sp := range doc.Spans {
		if sp.Parent == "" || !known[sp.Parent] {
			roots = append(roots, sp)
			continue
		}
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	var walk func(sp obs.Span, depth int)
	walk = func(sp obs.Span, depth int) {
		dur := "open"
		if sp.End > 0 {
			dur = fmt.Sprintf("%.3fms", (sp.End-sp.Start)*1000)
		}
		attrs := ""
		for _, a := range sp.Attrs {
			attrs += fmt.Sprintf("  %s=%s", a.K, a.V)
		}
		lines = append(lines, fmt.Sprintf("%s%-*s %10s%s",
			strings.Repeat("  ", depth+1), 24-2*depth, sp.Name, dur, attrs))
		for _, c := range children[sp.ID] {
			walk(c, depth+1)
		}
	}
	for _, sp := range roots {
		walk(sp, 0)
	}
	return lines
}

// cmdStats fetches GET /v1/stats. Text mode renders an operator
// summary — fleet, queue, and the result-cache section with its hit
// rate (the fraction of cacheable submissions the cache absorbed,
// counting coalesced in-flight attachments); -o json prints the raw
// stats document. Against a federation gateway the document is the
// federated shape (gateway block + merged fleet + per-member
// snapshots, docs/federation.md): text mode renders the gateway
// counters and each member's reachability first, then the merged
// fleet exactly as a single daemon's.
func cmdStats(addr string, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	output := fs.String("o", "text", "output mode: text (rendered summary) or json (raw stats document)")
	_ = fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("stats takes no positional arguments")
	}
	if *output == "json" {
		return printJSON(addr + "/v1/stats")
	}
	if *output != "text" {
		return fmt.Errorf("unknown output mode %q", *output)
	}
	raw, code, err := fetch(addr + "/v1/stats")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%d: %s", code, string(raw))
	}
	// A gateway's stats nest the merged fleet under "fleet"; a worker's
	// are the fleet block itself. A gateway always fronts a member.
	var fed federation.Stats
	if err := json.Unmarshal(raw, &fed); err == nil && fed.Gateway.Members > 0 {
		for _, line := range renderGatewayStats(fed) {
			fmt.Println(line)
		}
		return renderFleetStats(fed.Fleet)
	}
	var st service.Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		return err
	}
	return renderFleetStats(st)
}

// renderGatewayStats renders a gateway's own block — routed jobs, a
// drain, the route log (with its failed appends) and the gateway cache
// — and each member's reachability: the lines stats prints before the
// merged fleet.
func renderGatewayStats(st federation.Stats) []string {
	gw := st.Gateway
	jobs := fmt.Sprintf("gateway  %d members, %d jobs routed (forwarded %d, done %d, failed %d, recovered %d",
		gw.Members, gw.Jobs, gw.Forwarded, gw.Done, gw.Failed, gw.Recovered)
	if gw.PersistErrors > 0 {
		jobs += fmt.Sprintf(", %d route appends FAILED", gw.PersistErrors)
	}
	lines := []string{jobs + ")"}
	if gw.Draining {
		lines = append(lines, "gateway  draining: admitting nothing, finishing routed jobs")
	}
	if s := gw.Store; s != nil {
		lines = append(lines, fmt.Sprintf("gateway  route log %s %s: %d records in %d segments, %d bytes",
			s.Kind, s.Dir, s.Records, s.Segments, s.Bytes))
	}
	if c := gw.Cache; c != nil {
		lines = append(lines, fmt.Sprintf("gateway  cache %d/%d entries, hits %d, misses %d, coalesced %d",
			c.Entries, c.Capacity, c.Hits, c.Misses, c.Coalesced))
	}
	for _, m := range st.Members {
		state := "reachable"
		if !m.Reachable {
			state = "UNREACHABLE"
		}
		lines = append(lines, fmt.Sprintf("member   %s @ %s: %s", m.Member, m.Addr, state))
	}
	return lines
}

// renderFleetStats prints the single-daemon stats summary — also the
// merged fleet block of a gateway.
func renderFleetStats(st service.Stats) error {
	fmt.Printf("fleet    %d shards, queue %d/%d, running %d, done %d, failed %d, uptime %.0fs\n",
		st.Shards, st.Queued, st.QueueDepth, st.Running, st.Done, st.Failed, st.UptimeSeconds)
	for _, p := range st.Profiles {
		tech := ""
		if p.Tech != "" {
			tech = " " + p.Tech
		}
		fmt.Printf("profile  %s: %d × %d×%d%s, executed %d (stolen %d), queued %d\n",
			p.Profile, p.Shards, p.Cols, p.Rows, tech, p.Executed, p.Stolen, p.Queued)
	}
	if st.Store != nil {
		fmt.Printf("store    %s %s: %d records in %d segments, %d bytes\n",
			st.Store.Kind, st.Store.Dir, st.Store.Records, st.Store.Segments, st.Store.Bytes)
	}
	if c := st.Cache; c != nil {
		served := c.Hits + c.DiskHits + c.Coalesced
		line := fmt.Sprintf("cache    %d/%d entries (%d bytes), hits %d (%d from disk), misses %d, coalesced %d",
			c.Entries, c.Capacity, c.Bytes, c.Hits+c.DiskHits, c.DiskHits, c.Misses, c.Coalesced)
		if total := served + c.Misses; total > 0 {
			line += fmt.Sprintf(", hit rate %.1f%%", 100*float64(served)/float64(total))
		}
		fmt.Println(line)
	} else {
		fmt.Println("cache    disabled")
	}
	return nil
}

// cmdHealth fetches GET /v1/healthz and renders it. A worker reports
// one line; a federation gateway reports the aggregate status plus one
// line per member, and a non-ok aggregate ("degraded", "draining",
// "unavailable") exits non-zero so scripts can gate on it.
func cmdHealth(addr string, args []string) error {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	output := fs.String("o", "text", "output mode: text (rendered) or json (raw health document)")
	_ = fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("health takes no positional arguments")
	}
	raw, code, err := fetch(addr + "/v1/healthz")
	if err != nil {
		return err
	}
	if code != http.StatusOK && code != http.StatusServiceUnavailable {
		return fmt.Errorf("%d: %s", code, string(raw))
	}
	// A worker's body is service.Health; a gateway's shares its status,
	// uptime and build fields and adds the member rows.
	var h struct {
		service.Health
		Members []federation.MemberHealth `json:"members"`
	}
	if err := json.Unmarshal(raw, &h); err != nil {
		return err
	}
	switch *output {
	case "json":
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, raw, "", "  "); err != nil {
			return err
		}
		fmt.Println(pretty.String())
	case "text":
		if h.Members == nil {
			fmt.Printf("%s  %d shards, %d queued, %d running, up %.0fs%s\n",
				h.Status, h.Shards, h.Queued, h.Running, h.UptimeSeconds, renderBuild(h.Build))
			break
		}
		fmt.Printf("%s  %d members, up %.0fs%s\n",
			h.Status, len(h.Members), h.UptimeSeconds, renderBuild(h.Build))
		for _, m := range h.Members {
			if !m.Reachable {
				fmt.Printf("  %-12s %s  unreachable (%s)\n", m.Member, m.Addr, m.Error)
				continue
			}
			fmt.Printf("  %-12s %s  %s, %d shards, %d queued, %d running, up %.0fs\n",
				m.Member, m.Addr, m.Status, m.Shards, m.Queued, m.Running, m.UptimeSeconds)
		}
	default:
		return fmt.Errorf("unknown output mode %q", *output)
	}
	if h.Status != "ok" {
		return fmt.Errorf("status %s", h.Status)
	}
	return nil
}

// renderBuild formats the optional build block for a health line:
// " (go1.24.0 rev a1bd9d4*)", the asterisk marking a dirty build.
func renderBuild(b *obs.Build) string {
	if b == nil {
		return ""
	}
	s := " (" + b.GoVersion
	if b.Revision != "" {
		rev := b.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		s += " rev " + rev
		if b.Modified {
			s += "*"
		}
	}
	return s + ")"
}

// cmdList pages through GET /v1/assays and prints one job per line.
func cmdList(addr string, args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	status := fs.String("status", "", "filter by status (queued|running|done|failed)")
	limit := fs.Int("limit", 0, "page size (server default 50)")
	after := fs.String("after", "", "cursor: list jobs after this ID")
	newest := fs.Bool("newest", false, "newest first")
	_ = fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("list takes no positional arguments")
	}
	q := make([]string, 0, 4)
	if *status != "" {
		q = append(q, "status="+*status)
	}
	if *limit > 0 {
		q = append(q, fmt.Sprintf("limit=%d", *limit))
	}
	if *after != "" {
		q = append(q, "after="+*after)
	}
	if *newest {
		q = append(q, "order=desc")
	}
	url := addr + "/v1/assays"
	if len(q) > 0 {
		url += "?" + strings.Join(q, "&")
	}
	raw, code, err := fetch(url)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%d: %s", code, string(raw))
	}
	var page struct {
		Jobs []struct {
			ID        string `json:"id"`
			Status    string `json:"status"`
			Program   string `json:"program"`
			Seed      uint64 `json:"seed"`
			Profile   string `json:"profile"`
			Recovered bool   `json:"recovered"`
			Error     string `json:"error"`
		} `json:"jobs"`
		Next string `json:"next"`
	}
	if err := json.Unmarshal(raw, &page); err != nil {
		return err
	}
	for _, j := range page.Jobs {
		line := fmt.Sprintf("%s  %-7s  seed %-6d  %s", j.ID, j.Status, j.Seed, j.Program)
		if j.Profile != "" {
			line += "  [" + j.Profile + "]"
		}
		if j.Recovered {
			line += "  (recovered)"
		}
		if j.Error != "" {
			line += "  (" + j.Error + ")"
		}
		fmt.Println(line)
	}
	if page.Next != "" {
		fmt.Fprintf(os.Stderr, "assayctl: more jobs; continue with -after %s\n", page.Next)
	}
	return nil
}

// cmdWatch follows a job's SSE stream, reconnecting with Last-Event-ID
// when the connection drops so the rendered sequence has no gaps or
// duplicates.
func cmdWatch(addr string, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	output := fs.String("o", "text", "output mode: text (rendered) or json (raw NDJSON)")
	from := fs.Uint64("from", 0, "resume after this sequence number")
	retries := fs.Int("retries", 8, "max reconnect attempts after a dropped connection")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("watch needs exactly one job ID (or 'latest')")
	}
	if *output != "text" && *output != "json" {
		return fmt.Errorf("unknown output mode %q", *output)
	}
	id := fs.Arg(0)
	if id == "latest" {
		var err error
		if id, err = latestJob(addr); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "assayctl: watching %s\n", id)
	}

	last := *from
	for attempt := 0; ; {
		before := last
		terminal, failed, err := streamEvents(addr, id, &last, *output)
		if last > before {
			// The connection made progress; a fresh drop gets a fresh
			// reconnect budget (long jobs behind connection-recycling
			// proxies reconnect many times, each legitimately).
			attempt = 0
		}
		switch {
		case errors.Is(err, errNoRetry):
			// A definitive server verdict (404 unknown job, 400 bad
			// cursor, ...): retrying cannot help.
			return err
		case err != nil && attempt < *retries:
			// Dropped mid-stream: resume exactly after the last seq.
			attempt++
			fmt.Fprintf(os.Stderr, "assayctl: stream dropped (%v), resuming after #%d (%d/%d)\n",
				err, last, attempt, *retries)
			time.Sleep(time.Second)
		case err != nil:
			return fmt.Errorf("stream dropped after %d reconnects: %w", *retries, err)
		case failed:
			return fmt.Errorf("job %s failed", id)
		case terminal:
			return nil
		default:
			// Clean EOF without a terminal event: the job outlived the
			// connection (proxy timeout); reconnect from the cursor.
			if attempt++; attempt > *retries {
				return fmt.Errorf("stream ended %d times without a terminal event", attempt)
			}
			time.Sleep(time.Second)
		}
	}
}

// errNoRetry marks watch failures no reconnect can fix (the server gave
// a definitive non-200 answer).
var errNoRetry = fmt.Errorf("definitive server response")

// latestJob resolves the newest job via the listing endpoint.
func latestJob(addr string) (string, error) {
	raw, code, err := fetch(addr + "/v1/assays?order=desc&limit=1")
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return "", fmt.Errorf("%d: %s", code, string(raw))
	}
	var page struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &page); err != nil {
		return "", err
	}
	if len(page.Jobs) == 0 {
		return "", fmt.Errorf("no jobs on the server")
	}
	return page.Jobs[0].ID, nil
}

// streamEvents consumes one SSE connection. It returns terminal=true
// once a job.done / job.failed / shutdown event arrives (failed reports
// which), and a non-nil error when the connection broke mid-stream.
func streamEvents(addr, id string, last *uint64, output string) (terminal, failed bool, err error) {
	req, err := http.NewRequest(http.MethodGet, addr+"/v1/assays/"+id+"/events", nil)
	if err != nil {
		return false, false, err
	}
	if *last > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*last, 10))
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return false, false, fmt.Errorf("%s: %s: %w",
			resp.Status, strings.TrimSpace(string(raw)), errNoRetry)
	}
	// The reader skips a frame it cannot use (invalid JSON, id:/event:
	// lines that disagree with the payload, a CR in the payload), as a
	// gateway's relay does, instead of failing the watch.
	rd := stream.NewSSEReader(resp.Body)
	for {
		ev, ok := rd.Next()
		if !ok {
			// A clean server-side close returns nil; a broken
			// connection returns its error and is worth resuming.
			return false, false, rd.Err()
		}
		if ev.Seq > 0 {
			*last = ev.Seq
		}
		// The reader's events carry their payload as their encoding, so
		// Data returns it without encoding anything and cannot fail.
		data, _ := ev.Data()
		// The reader decodes only what it checks: text mode renders
		// from the whole payload, and skips one that does not decode.
		var full stream.Event
		switch {
		case output == "json":
			fmt.Println(string(data))
		case json.Unmarshal(data, &full) == nil:
			fmt.Println(renderEvent(full))
		}
		switch ev.Type {
		case stream.JobDone:
			return true, false, nil
		case stream.JobFailed:
			return true, true, nil
		case stream.Shutdown:
			fmt.Fprintln(os.Stderr, "assayctl: server shutting down, stream closed")
			return true, false, nil
		}
	}
}

// renderEvent formats one event for the terminal.
func renderEvent(ev stream.Event) string {
	prefix := fmt.Sprintf("#%-4d %9.2fs  ", ev.Seq, ev.T)
	switch ev.Type {
	case stream.JobPlaced:
		return prefix + fmt.Sprintf("placed %s (%s, seed %d) on profiles %s",
			ev.Job.ID, ev.Job.Program, ev.Job.Seed, strings.Join(ev.Job.Eligible, ", "))
	case stream.JobStarted:
		return prefix + fmt.Sprintf("started on profile %s", ev.Job.Profile)
	case stream.OpStarted:
		return prefix + fmt.Sprintf("op %d %s: %s", ev.Op.Index, ev.Op.Kind, ev.Op.Detail)
	case stream.OpFinished:
		return prefix + fmt.Sprintf("op %d %s done: %s", ev.Op.Index, ev.Op.Kind, ev.Op.Detail)
	case stream.ScanRows:
		occupied := 0
		for _, row := range ev.Scan.Rows {
			if row.Detected {
				occupied++
			}
		}
		return prefix + fmt.Sprintf("scan %d rows %d/%d: %d sites, %d detected",
			ev.Scan.Scan, ev.Scan.Batch+1, ev.Scan.Batches, len(ev.Scan.Rows), occupied)
	case stream.PlanExecuted:
		return prefix + fmt.Sprintf("plan executed (%s): makespan %d, %d moves",
			ev.Plan.Planner, ev.Plan.Makespan, ev.Plan.Moves)
	case stream.JobDone:
		return prefix + fmt.Sprintf("done: %.2fs simulated, %d trapped, %d steps, %d scan errors",
			ev.Job.Duration, ev.Job.Trapped, ev.Job.Steps, ev.Job.ScanErrors)
	case stream.JobFailed:
		return prefix + "FAILED: " + ev.Err
	case stream.Gap:
		return prefix + fmt.Sprintf("GAP: events %d–%d lost to ring truncation", ev.Gap.From, ev.Gap.To)
	case stream.Shutdown:
		return prefix + "server draining: stream closed"
	default:
		return prefix + ev.Type
	}
}

// waitUntilDone long-polls the job (the server holds each GET until the
// job finishes or its window closes) and pretty-prints the final
// record, with a placement summary on stderr.
func waitUntilDone(addr, id string) error {
	for {
		raw, status, err := fetch(addr + "/v1/assays/" + id + "?wait=1")
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("job %s: %s", id, string(raw))
		}
		var job struct {
			Status   string   `json:"status"`
			Profile  string   `json:"profile"`
			Eligible []string `json:"eligible"`
			Shard    int      `json:"shard"`
			Stolen   bool     `json:"stolen"`
		}
		if err := json.Unmarshal(raw, &job); err != nil {
			return err
		}
		if job.Status == "done" || job.Status == "failed" {
			var pretty bytes.Buffer
			if err := json.Indent(&pretty, raw, "", "  "); err != nil {
				return err
			}
			fmt.Println(pretty.String())
			if job.Profile != "" {
				fmt.Fprintf(os.Stderr, "assayctl: %s ran on profile %s (shard %d, stolen %v; eligible: %s)\n",
					id, job.Profile, job.Shard, job.Stolen, strings.Join(job.Eligible, ", "))
			}
			if job.Status == "failed" {
				return fmt.Errorf("job %s failed", id)
			}
			return nil
		}
	}
}

func printJSON(url string) error {
	raw, status, err := fetch(url)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%d: %s", status, string(raw))
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, raw, "", "  "); err != nil {
		return err
	}
	fmt.Println(pretty.String())
	return nil
}

func fetch(url string) ([]byte, int, error) {
	start := time.Now()
	resp, err := http.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	vlogf("GET %s → %d in %v", url, resp.StatusCode,
		time.Since(start).Round(time.Millisecond))
	return raw, resp.StatusCode, err
}

func decode(resp *http.Response, v interface{}) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection driven by hand rather
// than through http.Transport: every request and response is written
// and read on the client's own goroutine, so the traced run can tell
// the generator's allocations from the daemon's by stack.
type conn struct {
	addr  string // host:port
	nc    net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	stale bool // the server said it would close after the last response
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// roundTrip sends one request and reads the response head. The caller
// reads the body to EOF and closes it before the next round trip.
func (c *conn) roundTrip(method, path string, body []byte, parent string) (*http.Response, error) {
	if c.stale {
		c.close()
		c.stale = false
	}
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return nil, err
		}
		c.nc = nc
		c.br = bufio.NewReaderSize(nc, 32<<10)
		c.bw = bufio.NewWriterSize(nc, 8<<10)
	}
	fmt.Fprintf(c.bw, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, path, c.addr)
	if parent != "" {
		fmt.Fprintf(c.bw, "X-Bench-Parent: %s\r\n", parent)
	}
	if body != nil {
		fmt.Fprintf(c.bw, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	c.bw.WriteString("\r\n")
	c.bw.Write(body)
	if err := c.bw.Flush(); err != nil {
		c.close()
		return nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return nil, err
	}
	c.stale = resp.Close
	return resp, nil
}

// read reads a response body to EOF into the client's scratch buffer
// and closes it. The bytes are valid until the next read; keep copies
// what must outlive it.
func (cl *client) read(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	b := cl.buf[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := resp.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			cl.buf = b
			return b, nil
		}
		if err != nil {
			cl.buf = b
			return b, err
		}
	}
}

// sseFrame is one Server-Sent-Events frame. Synthetic frames (gap,
// shutdown) carry no id line, so hasID is false for them.
type sseFrame struct {
	id    uint64
	hasID bool
	event string
	data  []byte
}

// sseReader splits an event stream into frames.
type sseReader struct {
	r *bufio.Reader
}

// next returns the next complete frame; io.EOF at a clean end of
// stream, io.ErrUnexpectedEOF when the stream stops inside a frame.
func (s *sseReader) next() (sseFrame, error) {
	var f sseFrame
	started := false
	for {
		line, err := s.r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// A data line longer than the buffer: gather it whole. The
			// slice aliases the reader's buffer, so copy it first.
			head := append([]byte(nil), line...)
			rest, err2 := s.r.ReadBytes('\n')
			line, err = append(head, rest...), err2
		}
		if err != nil {
			if err == io.EOF && !started && len(line) == 0 {
				return f, io.EOF
			}
			if err == io.EOF {
				return f, io.ErrUnexpectedEOF
			}
			return f, err
		}
		line = bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r"))
		if len(line) == 0 {
			if started {
				return f, nil
			}
			continue
		}
		if line[0] == ':' {
			continue // comment
		}
		started = true
		name, val, _ := bytes.Cut(line, []byte(":"))
		val = bytes.TrimPrefix(val, []byte(" "))
		switch string(name) {
		case "id":
			n, err := strconv.ParseUint(string(val), 10, 64)
			if err != nil {
				return f, fmt.Errorf("sse: bad id %q", val)
			}
			f.id, f.hasID = n, true
		case "event":
			f.event = string(val)
		case "data":
			if f.data != nil {
				f.data = append(f.data, '\n')
			}
			f.data = append(f.data, val...)
		}
	}
}

// cycle is one job as one client saw it: POST, event stream, report.
type cycle struct {
	client, pair int
	start        time.Time // POST about to be written
	ack          time.Time // 202 body read
	done         time.Time // report held
	status       int       // POST status
	id           string    // job followed
	cache        string    // "", "hit" or "coalesced"
	events       []byte    // raw SSE body
	job          []byte    // GET /v1/assays/{id} body from ,"status" on
	err          string    // transport or protocol failure

	// Traced runs only: the cycle's client span, when the event stream
	// was requested, and when each frame arrived.
	span   string
	subAt  time.Time
	frames []frameTime
}

type frameTime struct {
	seq uint64
	at  time.Time
}

// failed reports whether the cycle counts against failed_frac before
// its report is checked.
func (c *cycle) failed() bool { return c.err != "" || c.status != http.StatusAccepted }

// client is one load-generator goroutine's state: its connection, its
// request generator and the distinct pairs it has drawn.
type client struct {
	idx    int
	c      conn
	gen    *generator
	pairs  []*pair
	tr     *tracer // nil in untraced runs
	buf    []byte  // scratch for response bodies
	seed   maphash.Seed
	intern map[uint64][]byte
}

func newClient(idx int, addr string, w workload, seed uint64, tr *tracer) *client {
	return &client{
		idx: idx, c: conn{addr: addr}, gen: newGenerator(w, seed, idx), tr: tr,
		seed: maphash.MakeSeed(), intern: make(map[uint64][]byte),
	}
}

// keep returns a copy of b that outlives the scratch buffer. On
// workloads with duplicates, cache hits return the same bytes many
// times over, so an earlier identical copy is returned when there is
// one.
func (cl *client) keep(b []byte) []byte {
	if cl.gen.w.dup == 0 {
		return bytes.Clone(b)
	}
	h := maphash.Bytes(cl.seed, b)
	if old, ok := cl.intern[h]; ok && bytes.Equal(old, b) {
		return old
	}
	b = bytes.Clone(b)
	cl.intern[h] = b
	return b
}

// run keeps the workload's window of jobs outstanding until stop
// reports true, then follows the jobs still outstanding to their
// reports, counting each finished cycle in done. It returns every
// cycle it started.
func (cl *client) run(window int, stop func() bool, done *atomic.Int64) ([]*cycle, error) {
	var out, open []*cycle
	for {
		for len(open) < window && !stop() {
			cy, err := cl.submit()
			if err != nil {
				return out, err
			}
			out = append(out, cy)
			if !cy.failed() {
				open = append(open, cy)
			}
		}
		if len(open) == 0 {
			return out, nil
		}
		cl.follow(open[0])
		open = open[1:]
		done.Add(1)
	}
}

// submit draws the next request and posts it.
func (cl *client) submit() (*cycle, error) {
	idx, fresh, err := cl.gen.draw()
	if err != nil {
		return nil, err
	}
	if fresh != nil {
		cl.pairs = append(cl.pairs, fresh)
		idx = len(cl.pairs) - 1
		cl.gen.remember(idx)
	}
	cy := &cycle{client: cl.idx, pair: idx}
	var parent string
	if cl.tr != nil {
		cy.span = cl.tr.newID("c")
		parent = cl.tr.newID("s")
	}
	cy.start = time.Now()
	resp, err := cl.c.roundTrip(http.MethodPost, "/v1/assays", cl.pairs[idx].body, parent)
	if err != nil {
		cy.err = err.Error()
		return cy, nil
	}
	body, err := cl.read(resp)
	cy.ack = time.Now()
	cy.status = resp.StatusCode
	if cl.tr != nil {
		cl.tr.add(span{ID: parent, Parent: cy.span, Layer: "client", Name: "client.submit",
			Start: secs(cy.start), End: secs(cy.ack)})
	}
	if err != nil {
		cy.err = err.Error()
		return cy, nil
	}
	if cy.status != http.StatusAccepted {
		cy.err = fmt.Sprintf("submit: status %d: %s", cy.status, bytes.TrimSpace(body))
		return cy, nil
	}
	var ack struct {
		ID    string `json:"id"`
		Cache string `json:"cache"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.ID == "" {
		cy.err = fmt.Sprintf("submit: bad 202 body %q", body)
		return cy, nil
	}
	cy.id, cy.cache = ack.ID, ack.Cache
	return cy, nil
}

// follow reads the job's event stream to its end, then fetches the
// job record with the report. The record must be terminal by then: the
// service publishes the terminal event after the job's status turns.
func (cl *client) follow(cy *cycle) {
	defer func() {
		cy.done = time.Now()
		if cl.tr != nil {
			cl.tr.add(span{ID: cy.span, Layer: "client", Name: "client.cycle", Job: cy.id,
				Start: secs(cy.start), End: secs(cy.done)})
		}
	}()
	if err := cl.events(cy); err != nil {
		cy.err = "events: " + err.Error()
		return
	}
	var parent string
	if cl.tr != nil {
		parent = cl.tr.newID("s")
	}
	t0 := time.Now()
	resp, err := cl.c.roundTrip(http.MethodGet, "/v1/assays/"+cy.id, nil, parent)
	if err != nil {
		cy.err = "get: " + err.Error()
		return
	}
	body, err := cl.read(resp)
	if err != nil || resp.StatusCode != http.StatusOK {
		cy.err = fmt.Sprintf("get: status %d: %v", resp.StatusCode, err)
		return
	}
	// Keep the record from its second field on: cache hits differ from
	// each other only in the leading job ID.
	i := bytes.Index(body, []byte(`,"status":`))
	if i < 0 {
		cy.err = fmt.Sprintf("get: no status in %.200q", body)
		return
	}
	cy.job = cl.keep(body[i:])
	if cl.tr != nil {
		cl.tr.add(span{ID: parent, Parent: cy.span, Layer: "client", Name: "client.get", Job: cy.id,
			Start: secs(t0), End: secs(time.Now())})
	}
}

// events reads the job's SSE stream to EOF, keeping the raw bytes.
func (cl *client) events(cy *cycle) error {
	var parent string
	if cl.tr != nil {
		parent = cl.tr.newID("s")
	}
	cy.subAt = time.Now()
	resp, err := cl.c.roundTrip(http.MethodGet, "/v1/assays/"+cy.id+"/events", nil, parent)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	// The untraced run only keeps the bytes: the check after the window
	// parses them and requires the replay's terminal job.done.
	var raw []byte
	if cl.tr == nil {
		if raw, err = cl.read(resp); err != nil {
			return err
		}
	} else {
		var buf bytes.Buffer
		sr := sseReader{r: bufio.NewReaderSize(io.TeeReader(resp.Body, &buf), 16<<10)}
		for {
			f, err := sr.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			cy.frames = append(cy.frames, frameTime{seq: f.id, at: time.Now()})
		}
		raw = buf.Bytes()
		cl.tr.add(span{ID: parent, Parent: cy.span, Layer: "client", Name: "client.events", Job: cy.id,
			Start: secs(cy.subAt), End: secs(time.Now())})
	}
	cy.events = cl.keep(raw)
	return nil
}

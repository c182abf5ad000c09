package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteSSE frames one event as Server-Sent Events, its data the event's
// own encoding (Event.Data): a relayed frame goes out as the bytes it
// arrived as. Synthetic events (seq 0: gap, shutdown) carry no id line,
// so they never disturb a client's resume cursor. The id line is a
// Write of its own: the traced benchmark (assaybench/traced.go's
// stampWriter) stamps a member's frames by the writes that begin with
// it, and a single-Write frame leaves federation.relay_lag_ms without
// samples.
func WriteSSE(w io.Writer, ev Event) {
	data, err := ev.Data()
	if err != nil {
		return
	}
	if ev.Seq > 0 {
		fmt.Fprintf(w, "id: %d\n", ev.Seq)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
}

// SSEReader incrementally parses an SSE byte stream, as WriteSSE
// frames it, into events. Lines may end in LF or CRLF, and the space
// after a field's colon is optional. Each frame's data: payload is kept
// as its bytes, the event's encoding (WithEncoding), and decoded only
// as far as a relay acts on it: job.* frames in full (a relay rewrites
// their job ID), gap frames in full (Ring.Feed moves a ring past the
// range they name), and so are frames without an id: line, such as shutdown.
// Every other frame decodes only its seq and type, which must match its
// id: and event: lines; a reader that needs the payload decodes the
// event's Data. A frame whose payload is not valid JSON, disagrees with
// those lines, or holds a CR, is skipped — forward compatibility over
// failure.
type SSEReader struct {
	r   *bufio.Reader
	f   sseFrame // the frame being read
	err error
}

// sseFrame holds a frame's id: and event: fields, and whether the
// frame has each line.
type sseFrame struct {
	id, event       string
	hasID, hasEvent bool
}

// NewSSEReader returns a reader parsing the SSE stream r.
func NewSSEReader(r io.Reader) *SSEReader {
	return &SSEReader{r: bufio.NewReader(r)}
}

// Next returns the next event, or ok false once the stream ends; Err
// then tells a clean end from a broken one.
func (s *SSEReader) Next() (Event, bool) {
	for {
		line, err := s.r.ReadBytes('\n')
		if err != nil {
			if err != io.EOF {
				s.err = err
			}
			return Event{}, false
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			// A blank line ends the frame.
			s.f = sseFrame{}
		case bytes.HasPrefix(line, []byte("id:")):
			s.f.id, s.f.hasID = string(bytes.TrimSpace(line[len("id:"):])), true
		case bytes.HasPrefix(line, []byte("event:")):
			s.f.event, s.f.hasEvent = string(bytes.TrimSpace(line[len("event:"):])), true
		case bytes.HasPrefix(line, []byte("data:")):
			ev, ok := s.f.decode(bytes.TrimSpace(line[len("data:"):]))
			s.f = sseFrame{}
			if ok {
				return ev, true
			}
		}
	}
}

// Err returns the read error that ended the stream, or nil when it
// ended cleanly (EOF) or has not ended.
func (s *SSEReader) Err() error { return s.err }

// decode turns the frame's data: payload into an event carrying the
// payload as its encoding, checked against the id: and event: lines.
// A relay writes the payload and the type out as they are, so a frame
// is refused when either holds a line end an SSE reader would honour:
// a CR in the payload (JSON whitespace, and the reader splits lines on
// LF only), or a CR or LF in the type. A daemon's encoder writes
// neither.
func (f sseFrame) decode(payload []byte) (Event, bool) {
	var ev Event
	if bytes.IndexByte(payload, '\r') >= 0 {
		return Event{}, false
	}
	if f.hasID && f.hasEvent && !strings.HasPrefix(f.event, "job.") && f.event != Gap {
		var head struct {
			Seq  uint64 `json:"seq"`
			Type string `json:"type"`
		}
		if json.Unmarshal(payload, &head) != nil {
			return Event{}, false
		}
		ev.Seq, ev.Type = head.Seq, head.Type
	} else if json.Unmarshal(payload, &ev) != nil {
		return Event{}, false
	}
	if f.hasID {
		if seq, err := strconv.ParseUint(f.id, 10, 64); err != nil || seq != ev.Seq {
			return Event{}, false
		}
	}
	if f.hasEvent && f.event != ev.Type || strings.ContainsAny(ev.Type, "\r\n") {
		return Event{}, false
	}
	return WithEncoding(ev, payload), true
}

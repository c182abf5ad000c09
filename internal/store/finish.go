package store

import (
	"encoding/json"
	"fmt"

	"biochip/internal/stream"
)

// eventSpan locates one event of a finish record's stream in the
// record's payload: its encoding is payload[start:end], its type typ.
// An event's sequence number is its position in the stream plus one.
type eventSpan struct {
	start, end uint32
	typ        string
}

// finishFrame splices the frame of a finish record. Its payload is
// json.Marshal of the record's head (every field but the report and the
// events), then the report's bytes and each event's own encoding
// (stream.Event.Data) copied in where json.Marshal of the Record puts
// them. The bytes equal that Marshal's as long as the report is compact
// JSON as json.Marshal writes it, which the service's report always is;
// Marshal would scan and re-compact the report and encode every event
// again. It returns each event's span in the payload, for the finish
// index.
func finishFrame(rec *FinishRecord) ([]byte, []eventSpan, error) {
	head := *rec
	head.Report, head.Events = nil, nil
	hb, err := json.Marshal(head)
	if err != nil {
		return nil, nil, err
	}
	datas := make([][]byte, len(rec.Events))
	size := len(`{"kind":"finish","finish":`) + len(hb) + len(`,"report":`) + len(rec.Report) + len(`,"events":[]}}`)
	for i, ev := range rec.Events {
		if datas[i], err = ev.Data(); err != nil {
			return nil, nil, fmt.Errorf("event %d: %w", ev.Seq, err)
		}
		size += len(datas[i]) + 1
	}
	buf := make([]byte, frameHeader, frameHeader+size)
	buf = append(buf, `{"kind":"finish","finish":`...)
	buf = append(buf, hb[:len(hb)-1]...) // drop the head's closing brace
	if len(rec.Report) > 0 {
		buf = append(buf, `,"report":`...)
		buf = append(buf, rec.Report...)
	}
	var spans []eventSpan
	if len(rec.Events) > 0 {
		spans = make([]eventSpan, len(rec.Events))
		buf = append(buf, `,"events":[`...)
		for i, data := range datas {
			if i > 0 {
				buf = append(buf, ',')
			}
			start := len(buf) - frameHeader
			buf = append(buf, data...)
			spans[i] = eventSpan{start: uint32(start), end: uint32(len(buf) - frameHeader), typ: rec.Events[i].Type}
		}
		buf = append(buf, ']')
	}
	buf = append(buf, "}}"...)
	seal(buf)
	return buf, spans, nil
}

// locateEvents finds the spans of a decoded finish record's events in
// its payload, which json.Unmarshal has already accepted: the elements
// of the "events" array of the "finish" object, one per decoded event.
// It reports false when it finds a different count, as it does for a
// record whose keys are spelled other than json.Marshal spells them.
func locateEvents(payload []byte, evs []stream.Event) ([]eventSpan, bool) {
	fin, ok := fieldValue(payload, 0, `"finish"`)
	if !ok {
		return nil, false
	}
	var spans []eventSpan
	if i, ok := fieldValue(payload, fin, `"events"`); ok && payload[i] == '[' {
		i = skipSpace(payload, i+1)
		for i < len(payload) && payload[i] != ']' {
			end := skipValue(payload, i)
			if end < 0 || len(spans) == len(evs) {
				return nil, false
			}
			spans = append(spans, eventSpan{start: uint32(i), end: uint32(end), typ: evs[len(spans)].Type})
			i = skipSpace(payload, end)
			if i < len(payload) && payload[i] == ',' {
				i = skipSpace(payload, i+1)
			}
		}
	}
	return spans, len(spans) == len(evs)
}

// fieldValue returns the offset of the value of the last key field
// (quoted, as it appears in the JSON) of the object starting at b[i].
func fieldValue(b []byte, i int, key string) (int, bool) {
	i = skipSpace(b, i)
	if i >= len(b) || b[i] != '{' {
		return 0, false
	}
	at, found := 0, false
	i = skipSpace(b, i+1)
	for i < len(b) && b[i] == '"' {
		kend := skipValue(b, i)
		if kend < 0 {
			return 0, false
		}
		v := skipSpace(b, kend)
		if v >= len(b) || b[v] != ':' {
			return 0, false
		}
		v = skipSpace(b, v+1)
		if string(b[i:kend]) == key {
			at, found = v, true
		}
		end := skipValue(b, v)
		if end < 0 {
			return 0, false
		}
		i = skipSpace(b, end)
		if i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
		}
	}
	return at, found
}

// skipValue returns the offset just past the JSON value starting at
// b[i], or -1 when b ends first.
func skipValue(b []byte, i int) int {
	if i >= len(b) {
		return -1
	}
	switch b[i] {
	case '"':
		for i++; i < len(b); i++ {
			switch b[i] {
			case '\\':
				i++
			case '"':
				return i + 1
			}
		}
		return -1
	case '{', '[':
		depth := 0
		for i < len(b) {
			switch b[i] {
			case '"':
				if i = skipValue(b, i); i < 0 {
					return -1
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
			i++
		}
		return -1
	default: // number, true, false, null
		for i < len(b) && !isDelim(b[i]) {
			i++
		}
		return i
	}
}

// skipSpace returns the offset of the first non-whitespace byte at or
// after b[i].
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// isDelim reports whether c ends a JSON number or literal.
func isDelim(c byte) bool {
	switch c {
	case ',', '}', ']', ' ', '\t', '\n', '\r':
		return true
	}
	return false
}

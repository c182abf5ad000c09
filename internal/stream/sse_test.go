package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// goldenFrames frames docs/examples/events.ndjson — a real worker
// stream of job a-000001 — as the SSE body a worker serves (WriteSSE),
// one frame per event.
func goldenFrames(t testing.TB) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "examples", "events.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	var frames []string
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		WriteSSE(&b, WithEncoding(ev, line))
		frames = append(frames, b.String())
	}
	return frames
}

// errCut is the read error of a stream cut mid-flight.
var errCut = errors.New("connection cut")

func FuzzSSEScanner(f *testing.F) {
	frames := goldenFrames(f)
	// One detection row keeps the real scan.rows frame short.
	frames[12] = strings.Replace(frames[12], `,{"col":5,"row":1,"id":1,"occupied":true,"detected":true,"snr":798.7900274669146},{"col":3,"row":1,"id":2,"occupied":true,"detected":true,"snr":989.6310979686441},{"col":1,"row":1,"id":3,"occupied":true,"detected":true,"snr":790.8613171193542}`, "", 1)
	for _, fr := range frames {
		f.Add([]byte(fr))
	}
	f.Add([]byte(frames[1] + frames[16]))
	f.Add([]byte(strings.ReplaceAll(frames[0]+frames[12], "\n", "\r\n")))
	f.Add([]byte("event: gap\ndata: {\"type\":\"gap\",\"t\":0,\"gap\":{\"from\":3,\"to\":9}}\n\n"))
	f.Add([]byte("event: shutdown\ndata: {\"type\":\"shutdown\",\"t\":0}\n\n"))
	f.Add([]byte(strings.TrimPrefix(frames[2], "id: 3\n")))
	f.Add([]byte("id: 4\nevent: op.started\ndata: {\"seq\":5,\"type\":\"op.started\"}\n\n"))
	f.Add([]byte("id: 5\nevent: op.started\ndata: {\"seq\":5,\"type\":\"op.started\",\r\"t\":0}\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := NewSSEReader(bytes.NewReader(data))
		var evs []Event
		for n := 0; ; n++ {
			ev, ok := rd.Next()
			if !ok {
				break
			}
			evs = append(evs, ev)
			if n > len(data) {
				t.Fatalf("%d events from %d bytes", n, len(data))
			}
			enc, err := ev.Data()
			if err != nil || !json.Valid(enc) {
				t.Fatalf("event %d: encoding %q is not valid JSON (%v)", n, enc, err)
			}
			if bytes.ContainsAny(enc, "\r\n") || strings.ContainsAny(ev.Type, "\r\n") {
				t.Fatalf("event %d: type %q or encoding %q holds a line end", n, ev.Type, enc)
			}
			var head struct {
				Seq  uint64 `json:"seq"`
				Type string `json:"type"`
			}
			if err := json.Unmarshal(enc, &head); err != nil || head.Seq != ev.Seq || head.Type != ev.Type {
				t.Fatalf("event %d: encoding %q has seq/type %d/%q (%v), event %d/%q",
					n, enc, head.Seq, head.Type, err, ev.Seq, ev.Type)
			}
			if strings.HasPrefix(ev.Type, "job.") || ev.Type == Gap {
				var full Event
				if err := json.Unmarshal(enc, &full); err != nil ||
					!reflect.DeepEqual(ev.Job, full.Job) || !reflect.DeepEqual(ev.Gap, full.Gap) {
					t.Fatalf("event %d (%s): decoded blocks %+v/%+v, encoding %q (%v)",
						n, ev.Type, ev.Job, ev.Gap, enc, err)
				}
			}
		}
		if err := rd.Err(); err != nil {
			t.Fatalf("clean end of stream: Err() = %v", err)
		}
		// The same bytes cut by a read error: the same events, then
		// the error.
		rd = NewSSEReader(io.MultiReader(bytes.NewReader(data), iotest.ErrReader(errCut)))
		for n := 0; ; n++ {
			ev, ok := rd.Next()
			if !ok {
				if n != len(evs) {
					t.Fatalf("cut stream: %d events, want %d", n, len(evs))
				}
				break
			}
			if n >= len(evs) || ev.Seq != evs[n].Seq || ev.Type != evs[n].Type {
				t.Fatalf("cut stream: event %d = %d/%q differs", n, ev.Seq, ev.Type)
			}
		}
		if err := rd.Err(); !errors.Is(err, errCut) {
			t.Fatalf("cut stream: Err() = %v, want %v", err, errCut)
		}
	})
}

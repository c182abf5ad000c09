package main

import (
	"bufio"
	"io"
	"strings"
	"testing"
)

func TestSSEReader(t *testing.T) {
	long := strings.Repeat("x", 10000) // longer than the reader's buffer
	stream := "id: 1\nevent: job.placed\ndata: {\"seq\":1}\n\n" +
		": keep-alive comment\n\n" +
		"event: gap\ndata: {\"type\":\"gap\",\"gap\":{\"from\":2,\"to\":5}}\n\n" +
		"id: 6\r\nevent: scan.rows\r\ndata: " + long + "\r\n\r\n" +
		"id:7\nevent:op.started\ndata: a\ndata: b\n\n" +
		"event: shutdown\ndata: {\"type\":\"shutdown\"}\n\n"
	sr := sseReader{r: bufio.NewReaderSize(strings.NewReader(stream), 4096)}
	want := []sseFrame{
		{id: 1, hasID: true, event: "job.placed", data: []byte(`{"seq":1}`)},
		{event: "gap", data: []byte(`{"type":"gap","gap":{"from":2,"to":5}}`)},
		{id: 6, hasID: true, event: "scan.rows", data: []byte(long)},
		{id: 7, hasID: true, event: "op.started", data: []byte("a\nb")},
		{event: "shutdown", data: []byte(`{"type":"shutdown"}`)},
	}
	for i, w := range want {
		f, err := sr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.id != w.id || f.hasID != w.hasID || f.event != w.event || string(f.data) != string(w.data) {
			t.Errorf("frame %d = {%d %v %q %.40q}, want {%d %v %q %.40q}",
				i, f.id, f.hasID, f.event, f.data, w.id, w.hasID, w.event, w.data)
		}
	}
	if _, err := sr.next(); err != io.EOF {
		t.Errorf("after the last frame: %v, want io.EOF", err)
	}
}

func TestSSEReaderTruncated(t *testing.T) {
	for _, stream := range []string{"id: 1\nevent: job.placed\ndata: {}", "id: 1\nevent: x\n"} {
		sr := sseReader{r: bufio.NewReader(strings.NewReader(stream))}
		if _, err := sr.next(); err != io.ErrUnexpectedEOF {
			t.Errorf("truncated stream %q: %v, want io.ErrUnexpectedEOF", stream, err)
		}
	}
	sr := sseReader{r: bufio.NewReader(strings.NewReader("id: x\ndata: {}\n\n"))}
	if _, err := sr.next(); err == nil {
		t.Error("non-numeric id accepted")
	}
}

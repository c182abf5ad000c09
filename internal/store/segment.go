package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"biochip/internal/stream"
)

// DefaultMaxSegmentBytes rolls the active segment once it would exceed
// this size (Options.MaxSegmentBytes 0 selects it).
const DefaultMaxSegmentBytes = 64 << 20

// maxRecordBytes bounds a single record payload. A length header above
// it is treated as corruption, so a torn length field can never trigger
// a gigabyte allocation during recovery.
const maxRecordBytes = 1 << 28

// frameHeader is the per-record framing overhead: a little-endian
// uint32 payload length followed by a uint32 CRC-32C of the payload.
const frameHeader = 8

// castagnoli is the CRC-32C table used for record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options sizes a disk store.
type Options struct {
	// MaxSegmentBytes rolls the active segment file once appending
	// would exceed it; 0 means DefaultMaxSegmentBytes. A single record
	// larger than the limit still gets a segment of its own.
	MaxSegmentBytes int64
	// NoSync skips the fsync after each append. Only tests and
	// throwaway logs (OpenTemp) should set it: a crash can then lose
	// acked records, which is exactly what the WAL exists to prevent.
	NoSync bool
}

// Disk is the append-only segment-log store: records framed with a
// length + CRC-32C header in numbered segment files under one
// directory, an in-memory index from job ID to its finish record —
// where the frame is, and where each event of the stream sits in it —
// and torn-tail recovery at open time (the log is truncated to its
// longest valid prefix, so a crash mid-append never resurrects a
// half-written record).
type Disk struct {
	dir  string
	opts Options

	mu        sync.Mutex
	cur       segmentFile // active segment, positioned at its end
	curSeg    int         // active segment number
	curSize   int64
	segments  []int // existing segment numbers, ascending; last == curSeg
	records   uint64
	bytes     int64 // total log bytes across segments
	truncated int64 // corrupt tail bytes discarded at open
	index     map[string]finishEntry
	closed    bool
	temp      bool // an OpenTemp log: Close removes dir
	// broken is set when a failed append could not be cut back off the
	// active segment: the segment's end is then unknown, so every later
	// append is refused.
	broken error
}

// segmentFile is what the store needs of the active segment file
// (*os.File); package tests wrap it to inject write, fsync and
// truncate failures.
type segmentFile interface {
	io.WriteSeeker
	Sync() error
	Truncate(size int64) error
	Close() error
}

// finishEntry is the index entry of one finish record: the segment
// number, byte offset and length of its frame, and the span of each
// event of its stream in the frame's payload. A cache-hit alias holds
// no events and names its root in dedupOf.
type finishEntry struct {
	seg     int
	off     int64
	size    int
	dedupOf string
	events  []eventSpan
}

// Open opens (creating if needed) the segment log in dir. It scans
// every segment, rebuilding the finish-record index — event spans
// included, as an append records them — and truncates the
// last segment to its longest valid prefix — the recovery step that
// makes a crash mid-append invisible. Corruption anywhere but the tail
// of the last segment is a hard error: it means lost history, not a
// torn write, and silently skipping records would break replay.
func Open(dir string, opts Options) (*Disk, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Disk{
		dir:   dir,
		opts:  opts,
		index: make(map[string]finishEntry),
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, seg := range segs {
		data, err := os.ReadFile(d.segPath(seg))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		valid := d.scan(seg, data, nil)
		if valid < int64(len(data)) {
			if i != len(segs)-1 {
				return nil, fmt.Errorf("store: segment %s corrupt at offset %d (not the log tail)",
					d.segPath(seg), valid)
			}
			// Torn tail of the last segment: drop it so appends resume
			// from the last durable record.
			d.truncated = int64(len(data)) - valid
			if err := os.Truncate(d.segPath(seg), valid); err != nil {
				return nil, fmt.Errorf("store: %w", err)
			}
		}
		d.bytes += valid
		d.segments = append(d.segments, seg)
	}
	if len(d.segments) == 0 {
		d.segments = []int{1}
	}
	d.curSeg = d.segments[len(d.segments)-1]
	f, err := os.OpenFile(d.segPath(d.curSeg), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	d.cur, d.curSize = f, size
	return d, nil
}

// OpenTemp opens a private log, fsync off, in a fresh directory under
// os.TempDir that Close removes (a process killed first leaves it).
func OpenTemp() (*Disk, error) {
	dir, err := os.MkdirTemp("", "assayd-log-")
	if err != nil {
		return nil, fmt.Errorf("store: temporary log: %w", err)
	}
	d, err := Open(dir, Options{NoSync: true})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d.temp = true
	return d, nil
}

// segPath names one segment file.
func (d *Disk) segPath(seg int) string {
	return filepath.Join(d.dir, fmt.Sprintf("wal-%06d.seg", seg))
}

// listSegments returns the existing segment numbers in ascending order.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var segs []int
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "wal-%06d.seg", &n); err == nil && n > 0 {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// scan walks the frames of one segment, indexing finish records and
// counting, and returns the byte length of the longest valid prefix: it
// stops at the first frame with a short header, an implausible length,
// a CRC mismatch, an undecodable payload or, when indexing, a finish
// record whose events it cannot locate (locateEvents). When fn is
// non-nil it is invoked with each decoded record (the Replay path).
func (d *Disk) scan(seg int, data []byte, fn func(rec *Record) error) int64 {
	off := int64(0)
	for {
		rec, next, ok := readFrame(data, off)
		if !ok {
			return off
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return off
			}
		} else {
			if rec.Kind == KindFinish {
				spans, ok := locateEvents(data[off+frameHeader:next], rec.Finish.Events)
				if !ok {
					return off
				}
				d.indexFinish(rec.Finish, finishEntry{seg: seg, off: off, size: int(next - off), events: spans})
			}
			d.records++
		}
		off = next
	}
}

// readFrame decodes the frame at off, returning the record, the offset
// of the next frame and whether the frame was valid and complete.
func readFrame(data []byte, off int64) (*Record, int64, bool) {
	if off+frameHeader > int64(len(data)) {
		return nil, 0, false
	}
	n := int64(binary.LittleEndian.Uint32(data[off:]))
	sum := binary.LittleEndian.Uint32(data[off+4:])
	if n > maxRecordBytes || off+frameHeader+n > int64(len(data)) {
		return nil, 0, false
	}
	payload := data[off+frameHeader : off+frameHeader+n]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, 0, false
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, 0, false
	}
	switch rec.Kind {
	case KindSubmit:
		if rec.Submit == nil {
			return nil, 0, false
		}
	case KindFinish:
		if rec.Finish == nil {
			return nil, 0, false
		}
	case KindRoute:
		if rec.Route == nil {
			return nil, 0, false
		}
	default:
		return nil, 0, false
	}
	return &rec, off + frameHeader + n, true
}

// frame encodes one record payload with its length + CRC header.
func frame(payload []byte) []byte {
	out := make([]byte, frameHeader+len(payload))
	copy(out[frameHeader:], payload)
	seal(out)
	return out
}

// seal writes the length + CRC header of the frame f, whose payload
// follows the frameHeader bytes it leaves for it.
func seal(f []byte) {
	payload := f[frameHeader:]
	binary.LittleEndian.PutUint32(f, uint32(len(payload)))
	binary.LittleEndian.PutUint32(f[4:], crc32.Checksum(payload, castagnoli))
}

// LogSubmit implements Store.
func (d *Disk) LogSubmit(rec SubmitRecord) error {
	return d.appendJSON(&Record{Kind: KindSubmit, Submit: &rec})
}

// LogFinish implements Store. The record is spliced from the report's
// bytes and the events' encodings (finishFrame), not marshalled, and
// the index keeps where each event landed, so Events serves the stream
// from the log without decoding it.
func (d *Disk) LogFinish(rec FinishRecord) error {
	buf, spans, err := finishFrame(&rec)
	if err != nil {
		return fmt.Errorf("store: finish record %s: %w", rec.ID, err)
	}
	return d.append(buf, &rec, spans)
}

// LogRoute implements Store.
func (d *Disk) LogRoute(rec RouteRecord) error {
	return d.appendJSON(&Record{Kind: KindRoute, Route: &rec})
}

// appendJSON appends a record json.Marshal encodes.
func (d *Disk) appendJSON(rec *Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return d.append(frame(payload), nil, nil)
}

// append durably writes one framed record, rolling the active segment
// when it would overflow, and indexes fin, the finish record the frame
// holds (nil for other kinds), with its event spans. The fsync before
// returning is the durability point the service acks against.
func (d *Disk) append(buf []byte, fin *FinishRecord, spans []eventSpan) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("store: closed")
	}
	if d.broken != nil {
		return fmt.Errorf("store: log end unknown since a failed append: %w", d.broken)
	}
	if d.curSize > 0 && d.curSize+int64(len(buf)) > d.opts.MaxSegmentBytes {
		if err := d.roll(); err != nil {
			return err
		}
	}
	off := d.curSize
	_, err := d.cur.Write(buf)
	if err == nil && !d.opts.NoSync {
		// fsync is the durability barrier of the WAL: the record must be
		// on stable storage before the service acks the submission. It
		// costs wall-clock time but reads none, so the determinism
		// contract is untouched.
		err = d.cur.Sync()
	}
	if err != nil {
		d.rollback(off)
		return fmt.Errorf("store: %w", err)
	}
	d.curSize += int64(len(buf))
	d.bytes += int64(len(buf))
	d.records++
	if fin != nil {
		d.indexFinish(fin, finishEntry{seg: d.curSeg, off: off, size: len(buf), events: spans})
	}
	return nil
}

// rollback cuts the active segment back to size, the end of the last
// acked record, after a failed write or fsync left some or all of a
// refused frame in it: the next record must start where the index will
// say it does, and a refused record must never replay. When the cut
// fails too, the store refuses every later append. Caller holds d.mu.
func (d *Disk) rollback(size int64) {
	if err := d.cur.Truncate(size); err != nil {
		d.broken = err
	} else if _, err := d.cur.Seek(size, io.SeekStart); err != nil {
		d.broken = err
	}
}

// indexFinish registers one finish record in the in-memory index by
// job ID. Caller holds d.mu (or is the single-threaded open-time scan).
func (d *Disk) indexFinish(fin *FinishRecord, e finishEntry) {
	if len(e.events) == 0 {
		e.dedupOf = fin.DedupOf
	}
	d.index[fin.ID] = e
}

// roll starts the next segment and seals the active one. The next
// segment is created first: when that fails, the active segment stays
// open and current, so only the append that needed the roll is refused
// and the next append tries the roll again. Caller holds d.mu.
func (d *Disk) roll() error {
	f, err := os.OpenFile(d.segPath(d.curSeg+1), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sealed := d.cur
	d.cur, d.curSize = f, 0
	d.curSeg++
	d.segments = append(d.segments, d.curSeg)
	if err := sealed.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Replay implements Store: it re-reads every segment in order and
// invokes fn with each record. The scan stops cleanly at the recovered
// log end (Open already truncated any torn tail).
func (d *Disk) Replay(fn func(rec *Record) error) error {
	d.mu.Lock()
	segs := append([]int(nil), d.segments...)
	d.mu.Unlock()
	var ferr error
	for _, seg := range segs {
		data, err := os.ReadFile(d.segPath(seg))
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		d.scan(seg, data, func(rec *Record) error {
			if ferr == nil {
				ferr = fn(rec)
			}
			return ferr
		})
		if ferr != nil {
			return ferr
		}
	}
	return nil
}

// Events implements Store: it reads a finished job's frame back from
// disk in one read, checks its CRC and returns each event of the stream
// as its sequence number, its type and its encoding, a slice of that
// read (stream.WithEncoding); nothing is decoded, and the call makes
// the same few allocations however long the stream. Each call re-reads
// the record, so serving an old stream never holds job history in
// memory.
func (d *Disk) Events(id string) ([]stream.Event, error) {
	d.mu.Lock()
	e, ok := d.index[id]
	if ok && e.dedupOf != "" {
		// Cache-hit alias: the stream lives in the root's record, and
		// roots are never aliases themselves.
		e, ok = d.index[e.dedupOf]
	}
	d.mu.Unlock()
	if !ok {
		return nil, ErrUnknownJob
	}
	f, err := os.Open(d.segPath(e.seg))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	buf := make([]byte, e.size)
	if _, err := f.ReadAt(buf, e.off); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	payload := buf[frameHeader:]
	if int(binary.LittleEndian.Uint32(buf)) != len(payload) ||
		crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[4:]) {
		return nil, fmt.Errorf("store: corrupt frame for job %s", id)
	}
	evs := make([]stream.Event, len(e.events))
	for i, sp := range e.events {
		evs[i] = stream.WithEncoding(stream.Event{Seq: uint64(i + 1), Type: sp.typ}, payload[sp.start:sp.end:sp.end])
	}
	return evs, nil
}

// Stats implements Store.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		Kind:      "disk",
		Dir:       d.dir,
		Segments:  len(d.segments),
		Bytes:     d.bytes,
		Records:   d.records,
		Truncated: d.truncated,
	}
}

// Close implements Store. It does not drain anything — there is
// nothing to drain: every acked record is already on disk. An OpenTemp
// log's directory is removed. Later calls do nothing.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	err := d.cur.Close()
	if d.temp {
		err = errors.Join(err, os.RemoveAll(d.dir))
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

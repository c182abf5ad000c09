package store

import (
	"errors"
	"os"
	"reflect"
	"testing"
)

// faultyFile wraps the active segment and makes it fail the way a full
// disk or a failing device does: with short > 0 the next Write puts
// down only the first short bytes of the frame and fails, with failSync
// the next Sync fails after the whole frame was written, and with
// failTruncate every Truncate fails.
type faultyFile struct {
	segmentFile
	short        int
	failSync     bool
	failTruncate bool
}

func (f *faultyFile) Write(p []byte) (int, error) {
	if f.short > 0 {
		n, _ := f.segmentFile.Write(p[:f.short])
		f.short = 0
		return n, errors.New("injected short write")
	}
	return f.segmentFile.Write(p)
}

func (f *faultyFile) Sync() error {
	if f.failSync {
		f.failSync = false
		return errors.New("injected fsync failure")
	}
	return f.segmentFile.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	if f.failTruncate {
		return errors.New("injected truncate failure")
	}
	return f.segmentFile.Truncate(size)
}

// checkReopen closes d, opens its directory again and requires the log
// to replay exactly want, with no torn tail to discard.
func checkReopen(t *testing.T, d *Disk, opts Options, want ...*Record) {
	t.Helper()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(d.dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Stats().Truncated; got != 0 {
		t.Errorf("reopen truncated %d bytes, want 0", got)
	}
	if got := replayAll(t, d2); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed %d records, want exactly the %d acked ones", len(got), len(want))
	}
}

// TestDiskShortWriteRollsBack: a write that puts down part of a frame
// and fails must leave nothing behind. The next acked record reads back
// as its own, and a reopen replays exactly the acked records.
func TestDiskShortWriteRollsBack(t *testing.T) {
	opts := Options{NoSync: true}
	d, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sub1, sub2 := testSubmit("a-000001", 1), testSubmit("a-000002", 2)
	if err := d.LogSubmit(sub1); err != nil {
		t.Fatal(err)
	}
	d.cur = &faultyFile{segmentFile: d.cur, short: 20}
	if err := d.LogFinish(testFinish("a-000001", 3)); err == nil {
		t.Fatal("a short write was acked")
	}
	fin2 := testFinish("a-000002", 4)
	if err := d.LogSubmit(sub2); err != nil {
		t.Fatal(err)
	}
	if err := d.LogFinish(fin2); err != nil {
		t.Fatal(err)
	}
	if evs, err := d.Events("a-000002"); err != nil || !reflect.DeepEqual(frames(t, evs), frames(t, fin2.Events)) {
		t.Fatalf("Events of the next acked job: %d events, %v; want its own %d", len(evs), err, len(fin2.Events))
	}
	checkReopen(t, d, opts,
		&Record{Kind: KindSubmit, Submit: &sub1},
		&Record{Kind: KindSubmit, Submit: &sub2},
		&Record{Kind: KindFinish, Finish: &fin2})
}

// TestDiskFailedSyncRollsBack: a frame written in full whose fsync
// fails was refused, so it must not stay in the log. The next finish
// record reads back as its own, not as the refused one at the offset
// it would have taken, and the refused record does not replay.
func TestDiskFailedSyncRollsBack(t *testing.T) {
	opts := Options{}
	d, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sub1, sub2 := testSubmit("a-000001", 1), testSubmit("a-000002", 2)
	for _, sub := range []SubmitRecord{sub1, sub2} {
		if err := d.LogSubmit(sub); err != nil {
			t.Fatal(err)
		}
	}
	d.cur = &faultyFile{segmentFile: d.cur, failSync: true}
	if err := d.LogFinish(testFinish("a-000001", 3)); err == nil {
		t.Fatal("a record whose fsync failed was acked")
	}
	fin2 := testFinish("a-000002", 4)
	if err := d.LogFinish(fin2); err != nil {
		t.Fatal(err)
	}
	if evs, err := d.Events("a-000002"); err != nil || !reflect.DeepEqual(frames(t, evs), frames(t, fin2.Events)) {
		t.Fatalf("Events of the next finished job: %d events, %v; want its own %d", len(evs), err, len(fin2.Events))
	}
	if _, err := d.Events("a-000001"); err != ErrUnknownJob {
		t.Errorf("Events of the refused finish: %v, want ErrUnknownJob", err)
	}
	checkReopen(t, d, opts,
		&Record{Kind: KindSubmit, Submit: &sub1},
		&Record{Kind: KindSubmit, Submit: &sub2},
		&Record{Kind: KindFinish, Finish: &fin2})
}

// TestDiskFailedRollbackRefusesAppends: when a refused frame cannot be
// cut back off the segment, the store must ack nothing after it.
func TestDiskFailedRollbackRefusesAppends(t *testing.T) {
	d, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sub1 := testSubmit("a-000001", 1)
	if err := d.LogSubmit(sub1); err != nil {
		t.Fatal(err)
	}
	d.cur = &faultyFile{segmentFile: d.cur, short: 20, failTruncate: true}
	if err := d.LogSubmit(testSubmit("a-000002", 2)); err == nil {
		t.Fatal("a short write was acked")
	}
	for i := 0; i < 2; i++ {
		if err := d.LogSubmit(testSubmit("a-000003", 3)); err == nil {
			t.Fatalf("append %d after a failed rollback was acked", i)
		}
	}
	if st := d.Stats(); st.Records != 1 {
		t.Errorf("store counts %d records, want the 1 acked", st.Records)
	}
}

// TestDiskFailedRollRecovers: a roll whose next segment cannot be
// created refuses the one append that needed it and leaves the active
// segment in service. Once the cause is gone, the next append rolls,
// Close succeeds, and a reopen replays exactly the acked records.
func TestDiskFailedRollRecovers(t *testing.T) {
	opts := Options{NoSync: true, MaxSegmentBytes: 64}
	d, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sub1, sub3, sub4 := testSubmit("a-000001", 1), testSubmit("a-000003", 3), testSubmit("a-000004", 4)
	if err := d.LogSubmit(sub1); err != nil {
		t.Fatal(err)
	}
	// A directory where the next segment goes: its create fails.
	stale := d.segPath(2)
	if err := os.Mkdir(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.LogSubmit(testSubmit("a-000002", 2)); err == nil {
		t.Fatal("an append whose roll failed was acked")
	}
	if err := os.Remove(stale); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []SubmitRecord{sub3, sub4} {
		if err := d.LogSubmit(sub); err != nil {
			t.Fatalf("append %s after the failed roll: %v", sub.ID, err)
		}
	}
	checkReopen(t, d, opts,
		&Record{Kind: KindSubmit, Submit: &sub1},
		&Record{Kind: KindSubmit, Submit: &sub3},
		&Record{Kind: KindSubmit, Submit: &sub4})
}

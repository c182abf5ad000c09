package experiments

import (
	"strings"
	"testing"

	"biochip/internal/table"
)

func renderString(t *testing.T, tbl *table.Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestRunEntriesMatchesSerialRuns verifies the concurrent campaign
// produces exactly the tables of a serial loop, in registry order, at
// any worker count — the determinism contract of the parallel engine.
func TestRunEntriesMatchesSerialRuns(t *testing.T) {
	// A spread of experiment styles: Monte-Carlo flows, full-platform
	// simulation, sensing, cage physics. (e7's table embeds wall-clock
	// planner timings, so it is excluded from byte comparison; the full
	// registry still runs under TestRunAll.)
	entries := []Entry{}
	for _, id := range []string{"e1", "e3", "e8", "e10"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	serial := RunEntries(entries, Quick, 1)
	concurrent := RunEntries(entries, Quick, 8)
	if len(serial) != len(entries) || len(concurrent) != len(entries) {
		t.Fatalf("result counts: serial %d, concurrent %d", len(serial), len(concurrent))
	}
	for i := range serial {
		if serial[i].Err != nil || concurrent[i].Err != nil {
			t.Fatalf("%s: errs %v / %v", entries[i].ID, serial[i].Err, concurrent[i].Err)
		}
		if concurrent[i].Entry.ID != entries[i].ID {
			t.Errorf("result %d out of order: got %s", i, concurrent[i].Entry.ID)
		}
		a := renderString(t, serial[i].Table)
		b := renderString(t, concurrent[i].Table)
		if a != b {
			t.Errorf("%s: concurrent table differs from serial:\n%s\nvs\n%s", entries[i].ID, a, b)
		}
	}
}

func TestRunAllCoversRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry campaign")
	}
	results := RunAll(Quick, 0)
	reg := Registry()
	if len(results) != len(reg) {
		t.Fatalf("got %d results for %d experiments", len(results), len(reg))
	}
	for i, r := range results {
		if r.Entry.ID != reg[i].ID {
			t.Errorf("result %d: got %s, want %s", i, r.Entry.ID, reg[i].ID)
		}
		if r.Err != nil {
			t.Errorf("%s failed: %v", r.Entry.ID, r.Err)
		}
		if r.Err == nil && r.Table.NumRows() == 0 {
			t.Errorf("%s produced an empty table", r.Entry.ID)
		}
	}
}

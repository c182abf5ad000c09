package route

import (
	"reflect"
	"testing"
)

// checkKeptReset fails unless every searcher the package's scratch
// keeps is in the state a new one has: nothing committed, closed, open
// or soft, and nothing kept past keepBytes.
func checkKeptReset(t *testing.T) {
	t.Helper()
	scratch.mu.Lock()
	defer scratch.mu.Unlock()
	if len(scratch.free) == 0 {
		t.Fatal("scratch keeps no searcher")
	}
	for k, s := range scratch.free {
		r := s.res
		if len(r.committed) != 0 || len(s.nodes) != 0 || len(s.open) != 0 {
			t.Errorf("searcher %d: %d committed paths, %d nodes, %d open entries", k, len(r.committed), len(s.nodes), len(s.open))
		}
		for _, p := range r.committed[:cap(r.committed)] {
			if p != nil {
				t.Errorf("searcher %d: table still references a committed path", k)
				break
			}
		}
		n := r.w * r.h
		if len(r.lastNear) != n || len(r.parkedNear) != n || len(s.soft) != n {
			t.Errorf("searcher %d: tables of %d/%d/%d cells over a %d-cell interior", k, len(r.lastNear), len(r.parkedNear), len(s.soft), n)
		}
		for i := range s.soft {
			if r.lastNear[i] != -1 || r.parkedNear[i] != -1 || s.soft[i] != 0 {
				t.Errorf("searcher %d: cell %d holds lastNear %d, parkedNear %d, soft %d", k, i, r.lastNear[i], r.parkedNear[i], s.soft[i])
				break
			}
		}
		for name, ls := range map[string]layers{"occupancy": r.occ, "closed": s.closed} {
			if ls.words != r.words {
				t.Errorf("searcher %d: %s layers of %d words over a %d-word interior", k, name, ls.words, r.words)
			}
			if words := len(ls.chunks) * (ls.words << ls.shift); words > keepWords {
				t.Errorf("searcher %d: keeps %d %s words, cap %d", k, words, name, keepWords)
			}
			for _, chunk := range ls.chunks {
				for _, w := range chunk {
					if w != 0 {
						t.Errorf("searcher %d: %s layers keep a set bit", k, name)
						break
					}
				}
			}
		}
		if cap(s.nodes) > keepNodes || cap(s.open) > keepNodes {
			t.Errorf("searcher %d: keeps an arena of %d nodes and an open list of %d entries, cap %d", k, cap(s.nodes), cap(s.open), keepNodes)
		}
	}
}

// TestScratchDropsOutsizedArena plans a small instance on a new
// searcher, then a 20-agent compaction whose search grows the same
// searcher's node arena past keepNodes, then the small instance again.
// The searcher must come back reset with the outsized arena dropped,
// the second small plan must equal the first, and the searcher must
// then keep its arena.
func TestScratchDropsOutsizedArena(t *testing.T) {
	scratch.mu.Lock()
	scratch.free = nil
	scratch.mu.Unlock()
	kept := func() *searcher {
		t.Helper()
		checkKeptReset(t)
		if n := len(scratch.free); n != 1 {
			t.Fatalf("scratch keeps %d searchers, want 1", n)
		}
		return scratch.free[0]
	}

	small, err := RandomProblem(32, 32, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (Prioritized{}).Plan(small)
	if err != nil {
		t.Fatal(err)
	}
	s := kept()

	big, err := CompactionProblem(32, 32, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Prioritized{}).Plan(big); err != nil {
		t.Fatal(err)
	}
	if kept() != s {
		t.Fatal("the outsized plan did not reuse the kept searcher")
	}
	if n := cap(s.nodes); n != 0 {
		t.Fatalf("kept an arena of %d nodes after the outsized plan; want it dropped", n)
	}

	got, err := (Prioritized{}).Plan(small)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("plan after an outsized one differs from the plan on a new searcher:\n got %+v\nwant %+v", got, want)
	}
	if kept() != s || cap(s.nodes) == 0 {
		t.Errorf("after the small plan the kept searcher has an arena of %d nodes; want it kept", cap(s.nodes))
	}
}

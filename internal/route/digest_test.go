package route

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"testing"
)

// digestProblems are the instances TestPlanGoldenDigest plans: random,
// compaction and local traffic at four congestion levels, seeds 1–6,
// plus two transposes. The densest level (12 agents on 16×16) is there
// for the paths the others never take: Prioritized restarts after a
// failed attempt, and Windowed agents blocked for a whole window.
func digestProblems(t *testing.T) []Problem {
	t.Helper()
	var out []Problem
	sizes := []struct{ edge, agents int }{{16, 4}, {24, 8}, {32, 12}, {16, 12}}
	gens := []func(edge, n int, seed uint64) (Problem, error){
		func(edge, n int, seed uint64) (Problem, error) { return RandomProblem(edge, edge, n, seed) },
		func(edge, n int, seed uint64) (Problem, error) { return CompactionProblem(edge, edge, n, seed) },
		func(edge, n int, seed uint64) (Problem, error) { return LocalProblem(edge, edge, n, 4, seed) },
	}
	for _, gen := range gens {
		for _, sz := range sizes {
			for seed := uint64(1); seed <= 6; seed++ {
				p, err := gen(sz.edge, sz.agents, seed)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, p)
			}
		}
	}
	for _, n := range []int{4, 8} {
		p, err := TransposeProblem(32, 32, n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// digestPlanners are the planners TestPlanGoldenDigest pins, by label:
// Name() alone does not tell the window sizes or parallelisms apart.
var digestPlanners = []struct {
	label string
	pl    Planner
}{
	{"prioritized/longest-first", Prioritized{Order: LongestFirst}},
	{"prioritized/shortest-first", Prioritized{Order: ShortestFirst}},
	{"prioritized/declared", Prioritized{Order: DeclaredOrder}},
	{"prioritized/random", Prioritized{Order: RandomOrder}},
	{"windowed", Windowed{}},
	{"windowed/w6", Windowed{Window: 6}},
	{"partitioned/p1", Partitioned{Parallelism: 1}},
	{"partitioned/p2", Partitioned{Parallelism: 2}},
}

// writePlan feeds everything a plan carries into h: the error text
// (a windowed partial plan comes with one), the metrics, the
// provenance and every path in agent-ID order.
func writePlan(h hash.Hash, pl *Plan, err error) {
	if err != nil {
		fmt.Fprintf(h, "err %s\n", err)
	}
	if pl == nil {
		fmt.Fprintln(h, "nil plan")
		return
	}
	fmt.Fprintf(h, "solved=%t makespan=%d moves=%d planner=%s\n", pl.Solved, pl.Makespan, pl.TotalMoves, pl.Planner)
	ids := make([]int, 0, len(pl.Paths))
	for id := range pl.Paths {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(h, "%d:", id)
		for _, c := range pl.Paths[id] {
			fmt.Fprintf(h, " %d,%d", c.Col, c.Row)
		}
		fmt.Fprintln(h)
	}
}

// planGoldenDigests pins, per planner, the SHA-256 over its plans of
// every digest problem, and over Refine(…, 3) and Compact of each
// solved one. Like the assay package's golden digests these compare
// against the values recorded when they were written, not against
// another run of the same build: a change to the search core that
// alters any path, any tie-break or any metric shows up here.
var planGoldenDigests = map[string]string{
	"prioritized/longest-first":          "5097a94852987ea0059d3ae6dea75308e032dfa034239681c3190c99504502e0",
	"prioritized/longest-first+refine":   "4420054151a84c8b4e6c018191dce78db08c166e084cbc2c3ad23ec46ba4e67d",
	"prioritized/longest-first+compact":  "2369fb5cfb10588ce0fb8487f68c1fa085ffe389963de07c1c77f777fb69e4f1",
	"prioritized/shortest-first":         "eb79dbe2a16cece9ef6184c907673cb04aeed0b7eb629c3e7f9c9d3386db75f2",
	"prioritized/shortest-first+refine":  "fcb1427a8807b9b9991452efea98e06343c066ede1b608e77dca69d44876236d",
	"prioritized/shortest-first+compact": "4750d001a11ca5cc403aef436f40d1737c3ce0f9efbd90829f06280ba267e79a",
	"prioritized/declared":               "4eec23e1883f83265ae1117505d6965970fb76195b4b50b388c0d992ff2d4964",
	"prioritized/declared+refine":        "d12509a59f412e5f8ef94ae8b68b372a67964c81cfce3315e0d4c00ce253991a",
	"prioritized/declared+compact":       "1f0b9be080bf1af15230fa92d8f491dad89219d840405322c3d31d677f754b42",
	"prioritized/random":                 "a5d7f9fa9ae36223cbfb90583229d3af28c7054aacd543d2edc1dbb80926e864",
	"prioritized/random+refine":          "14cf170218f326dcd6fefd408e07c801502eb552702bcefde649f3a9aaaa2783",
	"prioritized/random+compact":         "185caacd72f3c0ded5cd70391fcbaa18f0f19d9172dc79baab6b3365bd7032ed",
	"windowed":                           "b5eea34236ac714b5cd8f20734c976ee1ec52461ad179862129913d8c42cd23c",
	"windowed+refine":                    "9111cd389b6fa3d35d554573a9c8ddb405b74a7359ce959b965035b340d15b98",
	"windowed+compact":                   "316d41938489231b81d7c432d82a86ec9075741049ac3e043d08b154747c74f2",
	"windowed/w6":                        "b053482969c0da1606962cb15c08e3b6ba1e104796b4eececeb636c33f5711c9",
	"windowed/w6+refine":                 "e33aea727f7a16c3015d75016257f416c562e256123172dc53b822e52bfa5f7b",
	"windowed/w6+compact":                "9026871f6ddd6b27e10452041cd960c0e645e51716a4c97e6ed186fd284245f6",
	"partitioned/p1":                     "dd25434b82c8054d67065bfe589941f2efdff031673d9b9fa36ed805a409091d",
	"partitioned/p1+refine":              "d450df7a67327df5b5109584fbe3e4b58f850d06f1381dffd0db5cf1ab0b05e5",
	"partitioned/p1+compact":             "dfc4bbd93c7b9fd306de458cdf2ac31749a876a68de05b99c1a587d83c394bb6",
	"partitioned/p2":                     "dd25434b82c8054d67065bfe589941f2efdff031673d9b9fa36ed805a409091d",
	"partitioned/p2+refine":              "d450df7a67327df5b5109584fbe3e4b58f850d06f1381dffd0db5cf1ab0b05e5",
	"partitioned/p2+compact":             "dfc4bbd93c7b9fd306de458cdf2ac31749a876a68de05b99c1a587d83c394bb6",
}

// TestPlanGoldenDigest checks every planner's output on the digest
// problems against its recorded digest. Every plan and refinement takes
// its searcher from the package's scratch, so the searchers are reused
// in order across planners and problems: the sizes 16, 24 and 32 and
// Partitioned's regions re-target them, and partitioned/p2's clusters
// take theirs concurrently. Afterwards every kept searcher must be
// reset.
func TestPlanGoldenDigest(t *testing.T) {
	probs := digestProblems(t)
	for _, dp := range digestPlanners {
		plans, refined, compacted := sha256.New(), sha256.New(), sha256.New()
		for i, p := range probs {
			pl, err := dp.pl.Plan(p)
			fmt.Fprintf(plans, "problem %d\n", i)
			writePlan(plans, pl, err)
			if pl == nil || !pl.Solved {
				continue
			}
			rp, improved := Refine(p, pl, 3)
			fmt.Fprintf(refined, "problem %d improved %d\n", i, improved)
			writePlan(refined, rp, nil)
			cp, removed := Compact(p, pl)
			fmt.Fprintf(compacted, "problem %d removed %d\n", i, removed)
			writePlan(compacted, cp, nil)
		}
		for _, d := range []struct {
			suffix string
			h      hash.Hash
		}{{"", plans}, {"+refine", refined}, {"+compact", compacted}} {
			name := dp.label + d.suffix
			got := hex.EncodeToString(d.h.Sum(nil))
			if want := planGoldenDigests[name]; got != want {
				t.Errorf("%s: digest %s, want %s", name, got, want)
			}
		}
	}
	checkKeptReset(t)
}

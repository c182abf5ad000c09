package obs

import (
	"strings"
	"testing"
)

// TestExpositionRoundTrip pins the writer output shape and that the
// parser reads back exactly what the registry wrote.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("assayd_jobs_total", "terminal jobs by status", "status").With("done").Add(3)
	r.Counter("assayd_jobs_total", "terminal jobs by status", "status").With("failed").Inc()
	r.Gauge("assayd_queue_depth", "queued jobs per class", "class").With("a+b").Set(2)
	h := r.Histogram("assayd_execute_seconds", "execute stage latency", []float64{0.1, 1}, "profile")
	h.With("die40").Observe(0.05)
	h.With("die40").Observe(0.5)
	h.With("die40").Observe(5)

	var b strings.Builder
	if err := WriteExposition(&b, r.Gather()); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# HELP assayd_jobs_total terminal jobs by status",
		"# TYPE assayd_jobs_total counter",
		`assayd_jobs_total{status="done"} 3`,
		`assayd_jobs_total{status="failed"} 1`,
		`assayd_queue_depth{class="a+b"} 2`,
		`assayd_execute_seconds_bucket{profile="die40",le="0.1"} 1`,
		`assayd_execute_seconds_bucket{profile="die40",le="1"} 2`,
		`assayd_execute_seconds_bucket{profile="die40",le="+Inf"} 3`,
		`assayd_execute_seconds_sum{profile="die40"} 5.55`,
		`assayd_execute_seconds_count{profile="die40"} 3`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	var b2 strings.Builder
	if err := WriteExposition(&b2, fams); err != nil {
		t.Fatal(err)
	}
	if b2.String() != text {
		t.Errorf("parse/write round trip changed the exposition:\n--- wrote\n%s--- reread\n%s", text, b2.String())
	}
	if problems := LintExposition(strings.NewReader(text)); len(problems) != 0 {
		t.Errorf("registry output fails its own lint: %v", problems)
	}
}

// TestExpositionDeterministic pins byte-identical consecutive renders —
// the property the golden example and CI scrape check rely on.
func TestExpositionDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, class := range []string{"zeta", "alpha", "mid"} {
		r.Gauge("assayd_queue_depth", "queued jobs per class", "class").With(class).Set(1)
	}
	render := func() string {
		var b strings.Builder
		if err := WriteExposition(&b, r.Gather()); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := render()
	for i := 0; i < 5; i++ {
		if got := render(); got != first {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	if !strings.Contains(first, `{class="alpha"} 1`) {
		t.Fatalf("missing series:\n%s", first)
	}
}

// TestLintExposition exercises the promlint-style problems.
func TestLintExposition(t *testing.T) {
	bad := strings.Join([]string{
		"# HELP ok_total fine",
		"# TYPE ok_total counter",
		"ok_total 1",
		"ok_total 1", // duplicate
		"# TYPE untotaled counter",
		"untotaled 2", // counter without _total, and no HELP
		"# HELP hist h",
		"# TYPE hist histogram",
		`hist_bucket{le="1"} 1`, // no +Inf, no _sum/_count
		"naked 3",               // no TYPE/HELP at all
	}, "\n") + "\n"
	problems := LintExposition(strings.NewReader(bad))
	for _, want := range []string{
		"duplicate sample",
		"counter names should end in _total",
		`metric "untotaled": no # HELP line`,
		`no le="+Inf" bucket`,
		"missing _sum or _count",
		`metric "naked": no # TYPE line`,
	} {
		found := false
		for _, p := range problems {
			if strings.Contains(p, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("lint problems %v missing %q", problems, want)
		}
	}
	if problems := LintExposition(strings.NewReader("")); len(problems) == 0 {
		t.Error("empty exposition should lint dirty")
	}
}

// TestTraceDerivedIDs pins the deterministic span identifiers and the
// ring bound.
func TestTraceDerivedIDs(t *testing.T) {
	build := func() TraceDoc {
		tr := NewTrace("a-000001", "gw-1:3")
		root := tr.Start("job", "gw-1:3")
		place := tr.Add("place", root.ID(), 1, 2, Attr{K: "profile", V: "die40"})
		q := tr.Start("queue", root.ID())
		q.End()
		_ = place
		root.End()
		return tr.Snapshot()
	}
	a, b := build(), build()
	if len(a.Spans) != 3 || a.Parent != "gw-1:3" {
		t.Fatalf("unexpected trace: %+v", a)
	}
	for i := range a.Spans {
		if a.Spans[i].ID != b.Spans[i].ID || a.Spans[i].Parent != b.Spans[i].Parent || a.Spans[i].Name != b.Spans[i].Name {
			t.Fatalf("span structure not deterministic: %+v vs %+v", a.Spans[i], b.Spans[i])
		}
	}
	if a.Spans[0].ID != "a-000001:1" || a.Spans[1].ID != "a-000001:2" {
		t.Fatalf("span IDs not derived from job + counter: %+v", a.Spans)
	}

	tr := NewTrace("j", "")
	for i := 0; i < TraceCap+5; i++ {
		tr.Start("s", "")
	}
	doc := tr.Snapshot()
	if len(doc.Spans) != TraceCap || doc.Dropped != 5 {
		t.Fatalf("ring bound not enforced: %d spans, %d dropped", len(doc.Spans), doc.Dropped)
	}

	var nilTrace *Trace
	ref := nilTrace.Start("x", "")
	ref.End()
	if doc := nilTrace.Snapshot(); len(doc.Spans) != 0 {
		t.Fatal("nil trace must be inert")
	}
}

// TestRelabelMerge pins the gateway re-export transform: member label
// first, families merged by name, dst metadata kept.
func TestRelabelMerge(t *testing.T) {
	member := []MetricFamily{{
		Name: "assayd_jobs_total", Help: "terminal jobs", Type: "counter",
		Samples: []Sample{{Name: "assayd_jobs_total", Labels: []Label{{Name: "status", Value: "done"}}, Value: 2}},
	}}
	own := []MetricFamily{{
		Name: "assayd_forward_seconds", Help: "forward latency", Type: "histogram",
		Samples: []Sample{
			{Name: "assayd_forward_seconds_bucket", Labels: []Label{{Name: "le", Value: "+Inf"}}, Value: 1},
			{Name: "assayd_forward_seconds_sum", Value: 0.1},
			{Name: "assayd_forward_seconds_count", Value: 1},
		},
	}}
	merged := MergeFamilies(own, Relabel(member, "member", "w1"))
	if len(merged) != 2 || merged[0].Name != "assayd_forward_seconds" {
		t.Fatalf("merge order wrong: %+v", merged)
	}
	s := merged[1].Samples[0]
	if len(s.Labels) != 2 || s.Labels[0] != (Label{Name: "member", Value: "w1"}) {
		t.Fatalf("member label not prepended: %+v", s)
	}
	var b strings.Builder
	if err := WriteExposition(&b, merged); err != nil {
		t.Fatal(err)
	}
	if problems := LintExposition(strings.NewReader(b.String())); len(problems) != 0 {
		t.Errorf("merged exposition fails lint: %v", problems)
	}
	if !strings.Contains(b.String(), `assayd_jobs_total{member="w1",status="done"} 2`) {
		t.Errorf("relabelled sample missing:\n%s", b.String())
	}
}

// TestBuildInfo sanity-checks the healthz build block under `go test`
// (built from a module, so ReadBuildInfo succeeds).
func TestBuildInfo(t *testing.T) {
	b, ok := BuildInfo()
	if !ok {
		t.Skip("no build info in this binary")
	}
	if b.GoVersion == "" {
		t.Fatalf("build info has no Go version: %+v", b)
	}
}

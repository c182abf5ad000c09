package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted input
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true}, // 91..100 lie beyond
		{99, 0.9, 90, false}, // only 9 beyond
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1, 0.5, 1, false},
	} {
		got, ok := percentile(ramp(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as supported")
	}
	if n := samplesFor(0.9); n != 100 {
		t.Errorf("samplesFor(0.9) = %d, want 100", n)
	}
	if got, _ := percentile([]float64{1, math.Inf(1), 2}, 0.5); got != 2 {
		t.Errorf("failed samples (+Inf) must rank last; p50 = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestParseProcStat(t *testing.T) {
	data := []byte("cpu  100 5 50 800 20 1 4 20 7 0\ncpu0 50 2 25 400 10 0 2 10 3 0\nintr 1 2\n")
	got, err := parseProcStat(data)
	if err != nil {
		t.Fatal(err)
	}
	// total = user..steal (guest is inside user); busy excludes idle and iowait.
	want := cpuTimes{Busy: 180, Steal: 20, Total: 1000}
	if got != want {
		t.Errorf("parseProcStat = %+v, want %+v", got, want)
	}
	later := cpuTimes{Busy: 380, Steal: 70, Total: 1500}
	if s := stealShare(got, later); s != 0.1 {
		t.Errorf("stealShare = %v, want 0.1", s)
	}
	for _, bad := range []string{"", "cpu 1 2 3\n", "cpu a b c d e f g h\n"} {
		if _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("parseProcStat(%q) accepted", bad)
		}
	}
}

func TestParsePidStat(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	data := []byte("4242 (assay d) (x)) S 1 4242 4242 0 -1 4194304 100 0 0 0 1234 567 0 0 20 0 9 0 100 0 0\n")
	got, err := parsePidStat(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1234+567 {
		t.Errorf("parsePidStat = %d, want %d", got, 1234+567)
	}
	if _, err := parsePidStat([]byte("4242 (x) S 1 2")); err == nil {
		t.Error("short stat line accepted")
	}
}

func TestParseMemStats(t *testing.T) {
	data := []byte(`heap profile: 3: 4096 [10: 81920] @ heap/1048576
1: 4096 [1: 4096] @ 0x1 0x2
#	0x1	main.f+0x1	/x.go:1

# runtime.MemStats
# Alloc = 11
# TotalAlloc = 5000
# Sys = 9999
# Mallocs = 70
# Frees = 50
# HeapAlloc = 1234
# PauseNs = [0 1 2]
# NumGC = 3
# DebugGC = false
`)
	got, err := parseMemStats(data)
	if err != nil {
		t.Fatal(err)
	}
	want := memStats{HeapAlloc: 1234, TotalAlloc: 5000, Mallocs: 70, NumGC: 3}
	if got != want {
		t.Errorf("parseMemStats = %+v, want %+v", got, want)
	}
	if _, err := parseMemStats([]byte("# runtime.MemStats\n# HeapAlloc = 1\n")); err == nil {
		t.Error("incomplete MemStats block accepted")
	}
	if _, err := parseMemStats([]byte("# HeapAlloc = 1\n# TotalAlloc = 1\n# Mallocs = 1\n# NumGC = 1\n")); err == nil {
		t.Error("fields outside the MemStats block accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: "c", Layer: "client", Start: 0, End: 10},
		{ID: "h1", Parent: "c", Layer: "service", Start: 1, End: 4},
		{ID: "h2", Parent: "c", Layer: "service", Start: 3, End: 6}, // overlaps h1
		{ID: "s", Parent: "h1", Layer: "store", Start: 2, End: 3},
		{ID: "x", Parent: "c", Layer: "service", Start: 9, End: 12}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]float64{"client": 10 - 5 - 1, "service": 2 + 3 + 3, "store": 1}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-9 {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
}

func TestChunks(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var m measured
	m.start = t0
	o := outcome{verdicts: map[*cycle]verdict{}}
	// 250 cycles finishing 10 ms apart, in reverse order of creation;
	// every 50th failed.
	for i := 0; i < 250; i++ {
		end := t0.Add(time.Duration(250-i) * 10 * time.Millisecond)
		cy := &cycle{start: end.Add(-5 * time.Millisecond), ack: end.Add(-4 * time.Millisecond), done: end, status: 202}
		m.window = append(m.window, cy)
		o.verdicts[cy] = verdict{ok: i%50 != 0}
	}
	cs := chunks(m, o)
	if len(cs) != 2 {
		t.Fatalf("%d chunks, want 2 (the remainder of 50 joins the second)", len(cs))
	}
	if len(cs[0].done) != 100 || len(cs[1].done) != 150 {
		t.Errorf("chunk sizes %d, %d; want 100, 150", len(cs[0].done), len(cs[1].done))
	}
	if !cs[0].start.Equal(t0) || !cs[1].start.Equal(cs[0].end) || !cs[1].end.Equal(t0.Add(2500*time.Millisecond)) {
		t.Errorf("chunk bounds %v–%v, %v–%v", cs[0].start, cs[0].end, cs[1].start, cs[1].end)
	}
	if cs[0].verified+cs[1].verified != 245 {
		t.Errorf("verified %d + %d, want 245", cs[0].verified, cs[1].verified)
	}
	for _, c := range cs {
		for _, d := range c.done {
			if d != 5 && !math.IsInf(d, 1) {
				t.Fatalf("done latency %v, want 5 ms or +Inf", d)
			}
		}
	}
}

package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"biochip/internal/assay"
	"biochip/internal/obs"
	"biochip/internal/store"
)

// statsMatchMetrics reads one worker's /v1/stats and /v1/metrics and
// checks every Stats counter against its series. It returns the stats
// for the caller's own expectations.
func statsMatchMetrics(t *testing.T, base string) Stats {
	t.Helper()
	var st Stats
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp, err = http.Get(base + "/v1/metrics"); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	series := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Samples {
			key := s.Name
			for _, l := range s.Labels {
				key += fmt.Sprintf(" %s=%s", l.Name, l.Value)
			}
			series[key] = s.Value
		}
	}
	check := func(key string, stat uint64) {
		t.Helper()
		if v, ok := series[key]; !ok || uint64(v) != stat {
			t.Errorf("/v1/metrics %s = %v (present %v), /v1/stats reads %d", key, v, ok, stat)
		}
	}
	check("assayd_jobs_total status=done", st.Done)
	check("assayd_jobs_total status=failed", st.Failed)
	check("assayd_recovered_total", st.Recovered)
	check("assayd_persist_errors_total", st.PersistErrors)
	if c := st.Cache; c != nil {
		check("assayd_cache_events_total kind=hit", c.Hits)
		check("assayd_cache_events_total kind=miss", c.Misses)
		check("assayd_cache_events_total kind=coalesced", c.Coalesced)
	}
	executed := make(map[string]uint64)
	stolen := make(map[string]uint64)
	for _, sh := range st.PerShard {
		labels := fmt.Sprintf(" profile=%s shard=%d", sh.Profile, sh.Shard)
		check("assayd_executed_total"+labels, sh.Executed)
		check("assayd_steals_total"+labels, sh.Stolen)
		executed[sh.Profile] += uint64(series["assayd_executed_total"+labels])
		stolen[sh.Profile] += uint64(series["assayd_steals_total"+labels])
	}
	for _, p := range st.Profiles {
		if p.Executed != executed[p.Profile] || p.Stolen != stolen[p.Profile] {
			t.Errorf("profile %s: /v1/stats executed %d stolen %d, /v1/metrics sums %d and %d",
				p.Profile, p.Executed, p.Stolen, executed[p.Profile], stolen[p.Profile])
		}
	}
	return st
}

// TestStatsMatchMetrics pins that /v1/stats and /v1/metrics read one
// counter store: a durable worker runs a batch that moves every counter
// — done, failed, a cache miss, hit and coalesced duplicate, a steal —
// restarts on the same directory and takes a hit on a restored root,
// and after each phase every /v1/stats counter equals its series,
// restored jobs included. CI repeats it under the race detector.
func TestStatsMatchMetrics(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 2, Chip: testChip()}
	open := func() (*Service, *store.Disk, *httptest.Server) {
		d := openTestStore(t, dir)
		c := cfg
		c.Store, c.Obs = d, obs.NewRegistry()
		svc, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		return svc, d, httptest.NewServer(svc.Handler())
	}
	svc, d, ts := open()
	gate := make(chan struct{})
	const failSeed = 2
	inner := svc.run
	svc.run = func(sh *shard, j *Job) (*assay.Report, error) {
		<-gate
		if j.Seed == failSeed {
			return nil, errors.New("injected execution failure")
		}
		return inner(sh, j)
	}
	// Every job is designated to shard 0; with both shards held at the
	// gate, the one shard 1 claimed is a steal.
	svc.assign = func(int, []int) int { return 0 }

	pr := testProgram(4)
	submitAs := func(svc *Service, seed uint64, cache string) string {
		t.Helper()
		res, err := svc.Submit(SubmitRequest{Seed: seed, Program: pr})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache != cache {
			t.Fatalf("seed %d: cache %q, want %q", seed, res.Cache, cache)
		}
		return res.ID
	}
	wait := func(svc *Service, id string, want Status) {
		t.Helper()
		if j, err := svc.Wait(id); err != nil || j.Status != want {
			t.Fatalf("job %s: %s %v, want %s", id, j.Status, err, want)
		}
	}
	root := submitAs(svc, 1, "")
	failed := submitAs(svc, failSeed, "")
	deadline := time.Now().Add(30 * time.Second)
	for svc.Stats().Running < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("both shards never claimed: %+v", svc.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if id := submitAs(svc, 1, "coalesced"); id != root {
		t.Fatalf("coalesced onto %s, want %s", id, root)
	}
	close(gate)
	wait(svc, root, StatusDone)
	wait(svc, failed, StatusFailed)
	submitAs(svc, 1, "hit")
	wait(svc, submitAs(svc, 3, ""), StatusDone)

	st := statsMatchMetrics(t, ts.URL)
	c := st.Cache
	var executed, stolen uint64
	for _, sh := range st.PerShard {
		executed += sh.Executed
		stolen += sh.Stolen
	}
	if st.Done != 3 || st.Failed != 1 || c.Misses != 3 || c.Hits != 1 || c.Coalesced != 1 || executed != 3 || stolen < 1 {
		t.Errorf("before restart: done %d failed %d, misses %d hits %d coalesced %d, executed %d stolen %d; want 3 1, 3 1 1, 3 ≥1",
			st.Done, st.Failed, c.Misses, c.Hits, c.Coalesced, executed, stolen)
	}
	ts.Close()
	svc.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	svc, d, ts = open()
	defer func() { ts.Close(); svc.Close(); d.Close() }()
	submitAs(svc, 1, "hit")
	st = statsMatchMetrics(t, ts.URL)
	if c := st.Cache; st.Done != 4 || st.Failed != 1 || st.Recovered != 4 || c.Hits != 1 {
		t.Errorf("after restart: done %d failed %d recovered %d, hits %d; want 4 1 4, 1",
			st.Done, st.Failed, st.Recovered, c.Hits)
	}
}

// faultyStore is a durable store whose submit and finish appends fail
// while the matching switch is on.
type faultyStore struct {
	store.Store
	failSubmit, failFinish atomic.Bool
}

var errInjectedAppend = errors.New("injected append failure")

func (f *faultyStore) LogSubmit(rec store.SubmitRecord) error {
	if f.failSubmit.Load() {
		return errInjectedAppend
	}
	return f.Store.LogSubmit(rec)
}

func (f *faultyStore) LogFinish(rec store.FinishRecord) error {
	if f.failFinish.Load() {
		return errInjectedAppend
	}
	return f.Store.LogFinish(rec)
}

// TestPersistErrors drives every worker path that counts a persist
// error: a refused submission (500, no job), a finish record that
// failed (the job still ends done but is not cached) and an alias
// finish record that failed (the hit is still served). Each count must
// read the same on /v1/stats and /v1/metrics.
func TestPersistErrors(t *testing.T) {
	fs := &faultyStore{Store: openTestStore(t, t.TempDir())}
	defer fs.Close()
	svc, err := New(Config{Shards: 1, Chip: testChip(), Store: fs, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer func() { ts.Close(); svc.Close() }()
	pr := testProgram(4)
	persistErrors := func(want uint64) Stats {
		t.Helper()
		st := statsMatchMetrics(t, ts.URL)
		if st.PersistErrors != want {
			t.Errorf("persist errors %d, want %d", st.PersistErrors, want)
		}
		return st
	}

	// A submission whose write-ahead record fails is refused outright.
	fs.failSubmit.Store(true)
	if _, err := svc.Submit(SubmitRequest{Seed: 1, Program: pr}); !errors.Is(err, ErrPersist) {
		t.Fatalf("submit with a failing WAL: %v, want ErrPersist", err)
	}
	body, err := json.Marshal(SubmitRequest{Seed: 1, Program: pr})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/assays", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("HTTP submit with a failing WAL: %s, want 500", resp.Status)
	}
	if page := svc.List(ListFilter{}); len(page.Jobs) != 0 {
		t.Errorf("refused submissions left jobs: %+v", page.Jobs)
	}
	persistErrors(2)
	fs.failSubmit.Store(false)

	// A failed finish record: the job ends done in memory, uncached.
	fs.failFinish.Store(true)
	first, err := svc.Submit(SubmitRequest{Seed: 1, Program: pr})
	if err != nil {
		t.Fatal(err)
	}
	if j, err := svc.Wait(first.ID); err != nil || j.Status != StatusDone {
		t.Fatalf("job with a failing finish record: %s %v, want done", j.Status, err)
	}
	if st := persistErrors(3); st.Cache.Entries != 0 {
		t.Errorf("an unpersisted root was cached: %d entries", st.Cache.Entries)
	}
	fs.failFinish.Store(false)
	rerun, err := svc.Submit(SubmitRequest{Seed: 1, Program: pr})
	if err != nil || rerun.Cache != "" {
		t.Fatalf("resubmission: %+v %v, want an execution", rerun, err)
	}
	if j, err := svc.Wait(rerun.ID); err != nil || j.Status != StatusDone {
		t.Fatalf("rerun: %s %v", j.Status, err)
	}

	// A failed alias finish record: the hit is still served.
	fs.failFinish.Store(true)
	hit, err := svc.Submit(SubmitRequest{Seed: 1, Program: pr})
	if err != nil || hit.Cache != "hit" || hit.DedupOf != rerun.ID {
		t.Fatalf("duplicate with a failing finish record: %+v %v, want a hit of %s", hit, err, rerun.ID)
	}
	if j, ok := svc.Get(hit.ID); !ok || j.Status != StatusDone {
		t.Fatalf("alias %s: %+v", hit.ID, j)
	}
	persistErrors(4)
}

// familyShapes maps each metric family to its sorted label names, the
// histogram le label left out.
func familyShapes(fams []obs.MetricFamily) map[string][]string {
	out := make(map[string][]string, len(fams))
	for _, f := range fams {
		names := make(map[string]bool)
		for _, s := range f.Samples {
			for _, l := range s.Labels {
				if l.Name != "le" {
					names[l.Name] = true
				}
			}
		}
		labels := []string{}
		for n := range names {
			labels = append(labels, n)
		}
		sort.Strings(labels)
		out[f.Name] = labels
	}
	return out
}

// TestMetricsExampleMatchesRegistry keeps docs/examples/metrics.txt
// honest: its families and label names are a fresh worker's after one
// job.
func TestMetricsExampleMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "examples", "metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := obs.ParseExposition(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	svc, err := New(Config{Shards: 2, Chip: testChip(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	id, err := submit(svc, testProgram(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(id); err != nil {
		t.Fatal(err)
	}
	if got, want := familyShapes(doc), familyShapes(reg.Gather()); !reflect.DeepEqual(got, want) {
		t.Errorf("docs/examples/metrics.txt families and labels\n%v\nwant (a fresh worker's)\n%v", got, want)
	}
}

// Command assaybench is the end-to-end benchmark of the assay daemon.
// It drives assayd over loopback HTTP from one load-generator process
// with closed-loop clients, checks every report and event stream
// against a serial replay, and prints one JSON result line.
//
// Run it through run.sh from the repository root, which builds
// cmd/assayd and this command first:
//
//	bash assaybench/run.sh --workload scan-stream --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the daemons are the shipped assayd binary, run as
// child processes, and the result carries the end-to-end metrics. With
// --trace 1 the same composition is hosted in this process behind
// timing wrappers and the result carries the per-layer metrics.
// README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// warmup is the unmeasured lead-in of every run: connections open,
// shards and the daemon's allocator reach steady state, and cache-dup
// fills its duplicate pools.
const warmup = 1500 * time.Millisecond

// setups is how many cold set-ups a run times; set-up metrics are
// their medians.
const setups = 5

func main() {
	name := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Uint64("seed", 1, "workload seed: every program, seed and duplicate choice derives from it")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: per-layer run with the composition hosted in-process")
	root := flag.String("root", ".", "repository checkout to run in; scratch files go under its .bench_build")
	bin := flag.String("assayd", "", "assayd binary built from the checkout (untraced runs)")
	flag.Parse()

	w, err := workloadByName(*name)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	if err == nil && *trace == 0 && *bin == "" {
		err = fmt.Errorf("untraced runs need -assayd")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "assaybench:", err)
		os.Exit(2)
	}
	dir := filepath.Join(*root, ".bench_build", "runs", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	opts := runOpts{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, root: *root, dir: dir, bin: *bin}
	var res result
	var info map[string]any
	if *trace == 1 {
		res, info, err = runTraced(opts)
	} else {
		res, info, err = runUntraced(opts)
	}
	os.RemoveAll(dir)
	if err == nil {
		err = checkFinite(res)
	}
	if info == nil {
		info = map[string]any{}
	}
	info["workload"], info["seed"], info["trace"] = w.name, *seed, *trace
	if err != nil {
		info["error"] = err.Error()
	}
	if line, jerr := json.Marshal(map[string]any{"info": info}); jerr != nil {
		fmt.Fprintln(os.Stderr, "assaybench: info line:", jerr)
	} else if err == nil {
		fmt.Println(string(line))
	}
	appendRunLog(*root, info, res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "assaybench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "assaybench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// checkFinite refuses a result with a metric JSON cannot carry: a
// latency percentile is +Inf once failed cycles reach its rank.
func checkFinite(res result) error {
	for name, m := range res.Metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			return fmt.Errorf("metric %s is %v: %d of %d cycles failed", name, m.Value, res.Failed, res.Attempted)
		}
	}
	return nil
}

// appendRunLog keeps every run's record, failed runs included, in
// .bench_build/runs.jsonl: the info line beside the result.
func appendRunLog(root string, info map[string]any, res result) {
	line, err := json.Marshal(map[string]any{"info": info, "result": res})
	if err != nil {
		return
	}
	f, err := os.OpenFile(filepath.Join(root, ".bench_build", "runs.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	f.Write(append(line, '\n'))
	f.Close()
}

type runOpts struct {
	w    workload
	seed uint64
	dur  time.Duration
	root string // the checkout
	dir  string // scratch directory of this run, removed at exit
	bin  string
}

// measured is what drive records: every cycle, the measured window's
// bounds and the run-quality record.
type measured struct {
	all, window []*cycle
	start, end  time.Time
	quality     map[string]any
}

func (m measured) seconds() float64 { return m.end.Sub(m.start).Seconds() }

// completed counts the window's cycles that ended holding a job
// record: the jobs per-job costs are divided by.
func (m measured) completed() int {
	n := 0
	for _, cy := range m.window {
		if cy.job != nil {
			n++
		}
	}
	return n
}

// drive runs the clients through the warm-up, calls atStart, runs the
// measured window and calls atEnd. The window lasts dur and then until
// enough cycles finished to read p90 with ten samples beyond it, up to
// three times dur. Clients stop submitting at the end of a phase and
// finish the jobs they hold, so the daemon is idle at both boundaries.
func drive(cls []*client, w workload, dur time.Duration, atStart, atEnd func() error) (measured, error) {
	var m measured
	phase := func(stop func() bool, done *atomic.Int64) ([]*cycle, error) {
		var wg sync.WaitGroup
		got := make([][]*cycle, len(cls))
		errs := make([]error, len(cls))
		for i, cl := range cls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = cl.run(w.window, stop, done)
			}()
		}
		wg.Wait()
		var out []*cycle
		for i := range cls {
			if errs[i] != nil {
				return nil, errs[i]
			}
			out = append(out, got[i]...)
		}
		return out, nil
	}
	warmEnd := time.Now().Add(warmup)
	var warmDone atomic.Int64
	warm, err := phase(func() bool { return time.Now().After(warmEnd) }, &warmDone)
	if err != nil {
		return m, err
	}
	if err := atStart(); err != nil {
		return m, err
	}
	q0, err := readQuality()
	if err != nil {
		return m, err
	}
	need := int64(chunkSize)
	var done atomic.Int64
	m.start = time.Now()
	deadline, hardEnd := m.start.Add(dur), m.start.Add(3*dur)
	stopProbe := make(chan struct{})
	lagc := make(chan [2][]float64)
	go func() {
		lags, steal := lagProbe(stopProbe)
		lagc <- [2][]float64{lags, steal}
	}()
	m.window, err = phase(func() bool {
		now := time.Now()
		return now.After(hardEnd) || (now.After(deadline) && done.Load() >= need)
	}, &done)
	m.end = time.Now()
	close(stopProbe)
	probe := <-lagc
	lags := probe[0]
	if err != nil {
		return m, err
	}
	q1, err := readQuality()
	if err != nil {
		return m, err
	}
	if err := atEnd(); err != nil {
		return m, err
	}
	m.all = append(warm, m.window...)
	if m.completed() == 0 {
		return m, fmt.Errorf("no job completed in the measured window")
	}
	p50, _ := percentile(lags, 0.5)
	p90, _ := percentile(lags, 0.9)
	m.quality = map[string]any{
		"steal_frac":           stealShare(q0.cpu, q1.cpu),
		"host_busy_frac":       busyShare(q0.cpu, q1.cpu),
		"generator_cpu_ms":     (q1.self - q0.self).Seconds() * 1e3,
		"generator_lag_p50_ms": p50,
		"generator_lag_p90_ms": p90,
		"window_s":             m.seconds(),
		"steal_by_s":           probe[1],
	}
	return m, nil
}

// quality is one reading of the run-quality counters.
type quality struct {
	cpu  cpuTimes
	self time.Duration // this process's user+system CPU
}

func readQuality() (quality, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return quality{}, err
	}
	cpu, err := parseProcStat(data)
	if err != nil {
		return quality{}, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return quality{}, err
	}
	self := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return quality{cpu: cpu, self: self}, nil
}

// lagProbe measures how late the generator process gets to run: it
// sleeps 5 ms at a time and records the oversleep, in ms, until stop
// closes. Every second it also records the host's steal share.
func lagProbe(stop <-chan struct{}) (lags, steal []float64) {
	const tick = 5 * time.Millisecond
	prev, _ := readQuality()
	next := time.Now().Add(time.Second)
	for {
		t0 := time.Now()
		select {
		case <-stop:
			return lags, steal
		case <-time.After(tick):
		}
		lags = append(lags, float64(time.Since(t0)-tick)/1e6)
		if time.Now().After(next) {
			cur, err := readQuality()
			if err == nil {
				steal = append(steal, stealShare(prev.cpu, cur.cpu))
				prev = cur
			}
			next = next.Add(time.Second)
		}
	}
}

// outcome is the checked tally of a run's cycles.
type outcome struct {
	attempted, failed int
	verified          []*cycle // window cycles whose report and stream matched
	reasons           []string // first few failure reasons
	verdicts          map[*cycle]verdict
}

// replayAll replays every pair each client drew, on two goroutines.
func replayAll(cls []*client, cols int, timed bool) ([][]expected, error) {
	exps := make([][]expected, len(cls))
	for i, cl := range cls {
		e, err := replay(chipConfig(cols), cl.pairs, 2, timed)
		if err != nil {
			return nil, err
		}
		exps[i] = e
	}
	return exps, nil
}

// checkCycles checks every cycle of the run against the replay of its
// pair.
func checkCycles(m measured, exps [][]expected) outcome {
	o := outcome{verdicts: make(map[*cycle]verdict)}
	// Cache hits repeat their root's bytes, which the clients kept once:
	// check each distinct (stream, record) of a pair once.
	type checkKey struct {
		events, job  *byte
		client, pair int
	}
	memo := make(map[checkKey]verdict)
	inWindow := make(map[*cycle]bool, len(m.window))
	for _, cy := range m.window {
		inWindow[cy] = true
	}
	for _, cy := range m.all {
		o.attempted++
		var v verdict
		if cy.failed() || len(cy.job) == 0 || len(cy.events) == 0 {
			v.reason = cy.err
		} else {
			key := checkKey{&cy.events[0], &cy.job[0], cy.client, cy.pair}
			var seen bool
			if v, seen = memo[key]; !seen {
				v = check(cy.events, cy.job, exps[cy.client][cy.pair])
				memo[key] = v
			}
		}
		o.verdicts[cy] = v
		if !v.ok {
			o.failed++
			if len(o.reasons) < 3 {
				o.reasons = append(o.reasons, fmt.Sprintf("%s: %s", cy.id, v.reason))
			}
			continue
		}
		if inWindow[cy] {
			o.verified = append(o.verified, cy)
		}
	}
	return o
}

// chunkSize is the number of finished cycles per chunk of the window:
// enough for a p90 with ten samples beyond it.
var chunkSize = samplesFor(0.9)

// chunk is a run of consecutive finished cycles, in completion order.
type chunk struct {
	verified   int
	done       []float64 // ms; +Inf for a cycle that failed
	start, end time.Time
}

// chunks splits the window's cycles, in the order they finished, into
// consecutive chunks of chunkSize; the remainder joins the last chunk.
// The first chunk starts with the window.
func chunks(m measured, o outcome) []chunk {
	cys := append([]*cycle(nil), m.window...)
	end := func(cy *cycle) time.Time {
		if cy.done.IsZero() {
			return cy.ack // a refused submit is never followed
		}
		return cy.done
	}
	sort.Slice(cys, func(i, j int) bool { return end(cys[i]).Before(end(cys[j])) })
	var out []chunk
	from := m.start
	for i := 0; i < len(cys); i += chunkSize {
		j := i + chunkSize
		if len(cys)-j < chunkSize {
			j = len(cys)
		}
		c := chunk{start: from, end: end(cys[j-1])}
		for _, cy := range cys[i:j] {
			if o.verdicts[cy].ok {
				c.verified++
				c.done = append(c.done, ms(cy.done.Sub(cy.start)))
			} else {
				c.done = append(c.done, math.Inf(1))
			}
		}
		out = append(out, c)
		from = c.end
		if j == len(cys) {
			break
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// latencyMetrics puts the run's wall-clock figures in info:
// throughput, done and ack latencies, and their sample counts.
//
// Throughput and done latencies are medians over the window's chunks
// of 100+ consecutive jobs: a chunk's jobs per second, p50 and p90.
// Host CPU steal on the 2-core VM comes in bursts of seconds; a median
// over chunks keeps a burst that hits part of the window from moving
// the whole run, while a slowdown that lasts the window moves every
// chunk. Each chunk has ten samples beyond its p90. The ack
// percentiles are over the whole window.
//
// None of these is a result metric: on the 2-core VM they moved with
// host CPU steal (0 to 49% per run) by more than any bound a result
// metric may have, between sets of runs of identical code.
func latencyMetrics(info map[string]any, m measured, o outcome) {
	var ack []float64
	for _, cy := range m.window {
		if cy.failed() {
			ack = append(ack, math.Inf(1))
		} else {
			ack = append(ack, ms(cy.ack.Sub(cy.start)))
		}
	}
	var rate, p50s, p90s []float64
	for _, c := range chunks(m, o) {
		rate = append(rate, float64(c.verified)/c.end.Sub(c.start).Seconds())
		v, _ := percentile(c.done, 0.5)
		p50s = append(p50s, v)
		v, _ = percentile(c.done, 0.9)
		p90s = append(p90s, v)
	}
	info["jobs_per_s"] = median(rate)
	info["done_p50_ms"] = median(p50s)
	info["done_p90_ms"] = median(p90s)
	info["done_samples"] = len(m.window)
	info["chunks"] = len(rate)
	info["ack_p50_ms"], _ = percentile(ack, 0.5)
	info["ack_p90_ms"], _ = percentile(ack, 0.9)
	info["ack_samples"] = len(ack)
}

// runUntraced measures the end-to-end metrics against the shipped
// assayd binary run as child processes.
func runUntraced(opts runOpts) (result, map[string]any, error) {
	w := opts.w
	var setupS, setupMB []float64
	var dep *deployment
	for i := 0; i < setups; i++ {
		d, took, err := deploy(opts.bin, filepath.Join(opts.dir, "setup-"+strconv.Itoa(i)), w)
		if err != nil {
			return result{}, nil, err
		}
		heap, err := d.heap()
		if err != nil {
			d.stop()
			return result{}, nil, err
		}
		setupS = append(setupS, took.Seconds())
		setupMB = append(setupMB, float64(heap.HeapAlloc)/1e6)
		if i < setups-1 {
			d.stop()
			os.RemoveAll(filepath.Join(opts.dir, "setup-"+strconv.Itoa(i)))
			continue
		}
		dep = d
	}
	defer dep.stop()

	cls := make([]*client, clients)
	for i := range cls {
		cls[i] = newClient(i, dep.front, w, opts.seed, nil)
	}
	var heap0, heap1 memStats
	var cpu0, cpu1 uint64
	m, err := drive(cls, w, opts.dur, func() (err error) {
		if heap0, err = dep.heap(); err != nil {
			return err
		}
		cpu0, err = dep.cpuTicks()
		return err
	}, func() (err error) {
		if cpu1, err = dep.cpuTicks(); err != nil {
			return err
		}
		heap1, err = dep.heap()
		return err
	})
	for _, cl := range cls {
		cl.c.close()
	}
	if err != nil {
		return result{}, nil, err
	}
	dep.stop()

	exps, err := replayAll(cls, w.cols, false)
	if err != nil {
		return result{}, nil, err
	}
	o := checkCycles(m, exps)
	jobs := float64(m.completed())
	mets := map[string]metric{
		"setup_s":        {median(setupS), "s"},
		"setup_mb":       {median(setupMB), "MB"},
		"cpu_ms_per_job": {float64(cpu1-cpu0) * 1e3 / ticksPerSecond / jobs, "ms"},
		"mem_kb_per_job": {(float64(heap1.HeapAlloc) - float64(heap0.HeapAlloc)) / 1e3 / jobs, "KB"},
	}
	info := m.quality
	latencyMetrics(info, m, o)
	info["failed_frac"] = float64(o.failed) / float64(o.attempted)
	info["window_jobs"] = len(m.window)
	info["setup_s_samples"] = setupS
	// The daemons' own allocation counters, beside the traced run's
	// in-process estimate of the same (assayd.*).
	info["daemon_alloc_kb_per_job"] = float64(heap1.TotalAlloc-heap0.TotalAlloc) / 1e3 / jobs
	info["daemon_mallocs_per_job"] = float64(heap1.Mallocs-heap0.Mallocs) / jobs
	// Each daemon's count includes the GC the end-of-window read forced.
	info["daemon_gc_per_1k_jobs"] = float64(heap1.NumGC-heap0.NumGC-uint64(len(dep.daemons))) * 1e3 / jobs
	if len(o.reasons) > 0 {
		info["failures"] = o.reasons
	}
	return result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: mets}, info, nil
}

// Command assayd is the long-running assay daemon: it owns a fleet of
// simulated dies (internal/service) — homogeneous by default, or a
// heterogeneous mix of die profiles loaded from a fleet spec file — and
// serves assay programs over HTTP, placing each request on the profiles
// that can run it and load-balancing within its compatibility class.
// Every request carries a seed, and results are bit-identical to a
// serial replay of the same seeded program under the executing
// profile's die configuration (see ARCHITECTURE.md for the determinism
// contract).
//
// Endpoints:
//
//	POST /v1/assays             {"seed": N, "program": {...}} → 202 {"id": "a-000001", "eligible": [...]}
//	GET  /v1/assays             job listing; ?status= &limit= &after= &order=desc
//	GET  /v1/assays/{id}        job status; includes the report once done;
//	                            ?wait=1 long-polls until done or ?timeout=SECONDS
//	GET  /v1/assays/{id}/events live progress stream (Server-Sent-Events);
//	                            Last-Event-ID resumes without gaps (docs/streaming.md)
//	GET  /v1/assays/{id}/trace  per-job span tree (docs/observability.md)
//	GET  /v1/stats              per-profile/shard/class/queue/calibration/planner statistics
//	GET  /v1/metrics            Prometheus text exposition (disable with -no-obs)
//	GET  /v1/healthz            liveness; flips to 503/"draining" during shutdown
//
// The program payload is the assay JSON wire format documented in
// docs/assay-format.md (the same format cmd/assayc compiles); programs
// may carry an explicit "requirements" block to steer placement. Use
// cmd/assayctl to submit, wait, watch, list and fetch from the shell.
//
// On SIGINT/SIGTERM the daemon drains gracefully: it stops admitting
// (503 + Retry-After), finishes every already-admitted job, sends
// terminal shutdown events to open event-stream subscribers, then
// exits.
//
// Usage:
//
//	assayd [-addr :8547] [-shards N] [-queue N] [-cols N] [-rows N] [-p N] [-data DIR] [-no-cache] [-no-obs] [-pprof ADDR]
//	assayd [-addr :8547] -fleet fleet.json [-data DIR]
//
// A fleet spec file (see docs/examples/fleet.json and docs/cli.md)
// replaces the homogeneous -shards/-cols/-rows/-p sizing with named die
// profiles, each with its own shard count, array size and optional CMOS
// technology node.
//
// With -data the daemon is durable (docs/persistence.md): submissions
// are written ahead to an append-only log before the 202 ack, finished
// jobs persist their report and full event stream, and a restart
// replays the log — finished jobs are served from disk and jobs that
// were in flight at a crash re-execute deterministically from their
// (program, seed) record. Without -data the log is private: fsync off,
// under $TMPDIR, removed at exit, so a restart starts empty.
//
// Duplicate submissions are answered from a content-addressed result
// cache (docs/caching.md): an identical (program, seed) resubmission
// returns a finished alias job instantly, and identical concurrent
// submissions coalesce onto one execution. -no-cache disables this.
// The cache's index keeps every key for the daemon's lifetime: one map
// entry per cacheable job, beside a job record the daemon keeps anyway.
//
// With -gateway -members members.json the daemon runs as a federation
// gateway instead (docs/federation.md): it owns no dies, but fronts
// the worker assayds listed in the members spec, placing each
// submission on the least-backlogged member whose profiles can run it
// and proxying status, listings, stats and event streams under the
// same endpoints. Determinism is unchanged through the gateway — which
// member executes a job never changes a bit of its report or stream.
// -data gives the gateway a durable log so job→member bindings and
// finished routed jobs survive a gateway restart; the cache flags size
// the gateway's own result cache.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"biochip/internal/chip"
	"biochip/internal/federation"
	"biochip/internal/obs"
	"biochip/internal/service"
	"biochip/internal/store"
)

// readHeaderTimeout bounds the wait for a request's headers, so a
// client cannot hold a connection open without ever sending a request.
const readHeaderTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", ":8547", "HTTP listen address")
	fleet := flag.String("fleet", "", "fleet spec file (JSON); overrides -shards/-cols/-rows/-p")
	shards := flag.Int("shards", 0, "simulated dies in the pool (0 = GOMAXPROCS)")
	queue := flag.Int("queue", service.DefaultQueueDepth, "bounded submission queue depth")
	cols := flag.Int("cols", 96, "electrode columns per die")
	rows := flag.Int("rows", 96, "electrode rows per die")
	par := flag.Int("p", 1, "intra-die parallelism (workers per simulator; 0 = GOMAXPROCS)")
	data := flag.String("data", "", "durable data directory: submissions, reports and event streams survive restarts (empty = a private log under $TMPDIR, fsync off, removed at exit)")
	noCache := flag.Bool("no-cache", false, "disable the content-addressed result cache: every submission executes")
	gateway := flag.Bool("gateway", false, "run as a federation gateway over the -members fleet instead of owning dies (docs/federation.md)")
	members := flag.String("members", "", "members spec file (JSON) listing the worker daemons behind a -gateway")
	noObs := flag.Bool("no-obs", false, "disable observability: no /v1/metrics, no span traces (docs/observability.md)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate listen address (empty = off)")
	flag.Parse()

	if *pprofAddr != "" {
		startPprof(*pprofAddr)
	}
	var reg *obs.Registry
	if !*noObs {
		reg = obs.NewRegistry()
	}

	if *gateway || *members != "" {
		if *members == "" {
			fatal(fmt.Errorf("-gateway requires -members"))
		}
		spec, err := federation.LoadMembersSpec(*members)
		if err != nil {
			fatal(err)
		}
		cfg := federation.Config{Members: spec.Members, Cache: spec.Cache, Obs: reg}
		if *noCache {
			cfg.Cache.Disable = true
		}
		cfg.Store = openStore(*data)
		g, err := federation.New(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "assayd: gateway over %d members, listening on %s\n",
			len(spec.Members), *addr)
		if *data != "" {
			fmt.Fprintf(os.Stderr, "assayd: data dir %s: %d routed jobs recovered\n",
				*data, g.Stats().Gateway.Recovered)
		}
		for _, m := range spec.Members {
			names := make([]string, len(m.Profiles))
			for i, p := range m.Profiles {
				names[i] = p.Name
			}
			fmt.Fprintf(os.Stderr, "assayd:   member %s @ %s: profiles %v\n", m.Name, m.Addr, names)
		}
		serve(*addr, g, g.Handler())
		return
	}

	var svcCfg service.Config
	if *fleet != "" {
		spec, err := service.LoadFleetSpec(*fleet)
		if err != nil {
			fatal(err)
		}
		svcCfg = spec.ServiceConfig()
		if svcCfg.QueueDepth == 0 {
			svcCfg.QueueDepth = *queue
		}
	} else {
		cfg := chip.DefaultConfig()
		cfg.Array.Cols, cfg.Array.Rows = *cols, *rows
		cfg.SensorParallelism = *cols
		// Shards already fan out across cores; keep per-die loops serial by
		// default so the pool, not one die, owns the host.
		cfg.Parallelism = *par
		svcCfg = service.Config{Shards: *shards, QueueDepth: *queue, Chip: cfg}
	}
	// The flag wins over the fleet spec's cache block so an operator can
	// turn the cache off without editing the spec.
	if *noCache {
		svcCfg.Cache.Disable = true
	}
	svcCfg.Obs = reg
	svcCfg.Store = openStore(*data)
	svc, err := service.New(svcCfg)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "assayd: %d shards, queue %d, listening on %s\n",
		svc.Shards(), svcCfg.QueueDepth, *addr)
	if *data != "" {
		fmt.Fprintf(os.Stderr, "assayd: data dir %s: %d jobs recovered\n",
			*data, svc.Stats().Recovered)
	}
	for _, p := range svc.Profiles() {
		tech := ""
		if p.Tech != "" {
			tech = ", " + p.Tech
		}
		fmt.Fprintf(os.Stderr, "assayd:   profile %s: %d × %d×%d dies%s\n",
			p.Name, p.Shards, p.Chip.Array.Cols, p.Chip.Array.Rows, tech)
	}
	serve(*addr, svc, svc.Handler())
}

// startPprof serves net/http/pprof on its own listener, kept off the
// public API address so profiling exposure is an explicit operator
// choice. The default mux is avoided deliberately: only the pprof
// routes are reachable here.
func startPprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		fmt.Fprintf(os.Stderr, "assayd: pprof listening on %s\n", addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			fmt.Fprintln(os.Stderr, "assayd: pprof:", err)
		}
	}()
}

// fatal reports a start-up error and exits non-zero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "assayd:", err)
	os.Exit(1)
}

// openStore opens the -data directory's log, or returns nil without
// one: the backend then opens its private log.
func openStore(dir string) store.Store {
	if dir == "" {
		return nil
	}
	disk, err := store.Open(dir, store.Options{})
	if err != nil {
		fatal(err)
	}
	return disk
}

// serve runs either role until shutdown: it listens, and on SIGINT or
// SIGTERM drains gracefully — admission closes first (healthz flips to
// draining, submits get 503 + Retry-After), every admitted job runs to
// completion and open SSE subscribers get their terminal shutdown
// event — and only then stops the listener and closes the backend,
// which closes its log (a listen error closes it too). A second signal
// skips the wait, leaving a private log behind: the drain is unbounded
// when the backlog is deep, and the operator must keep a way out.
func serve(addr string, b service.Backend, h http.Handler) {
	srv := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "assayd: draining (no new admissions; signal again to exit now)")
		go func() {
			<-sig
			fmt.Fprintln(os.Stderr, "assayd: second signal, exiting without drain")
			os.Exit(1)
		}()
		b.Drain()
		fmt.Fprintln(os.Stderr, "assayd: drained, shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		close(done)
	}()
	if err := srv.ListenAndServe(); err != http.ErrServerClosed {
		b.Close()
		fatal(err)
	}
	<-done
	b.Close()
}

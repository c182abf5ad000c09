// Package obs is the daemon's observability layer: a metrics registry
// rendered as Prometheus text exposition (/v1/metrics), per-job span
// traces (/v1/assays/{id}/trace), and build/uptime identity for
// /v1/healthz.
//
// The registry is also each daemon's only counter store: the worker
// and the gateway always build one and record every counter, histogram
// and gauge into it, and their JSON /v1/stats read its counters.
// Turning observability off (assayd -no-obs) only stops the daemon
// serving the registry and recording traces; a nil *Trace is inert, so
// span sites need no branch.
//
// Everything in this package is strictly out-of-band telemetry — the
// same carve-out docs/determinism.md grants Event.Wall and PlanSeconds.
// Nothing produced here may flow into assay.Report, event payloads or
// cache keys; the detlint obspurity rule enforces that statically, and
// the wall-clock read below is the package's single sanctioned
// time.Now site. Span identifiers are derived (job ID + monotonic
// counter), never random, so traces are structurally deterministic
// even though their timestamps are wall clock. See
// docs/observability.md.
package obs

import (
	"runtime/debug"
	"sync"
	"time"
)

// Stamp is a wall-clock reading in seconds since the Unix epoch. It is
// a distinct type (not float64) so that obspurity can recognise
// telemetry timestamps at lint time wherever they travel.
type Stamp float64

// Now reads the wall clock for telemetry stamps and latency
// measurements. Every histogram observation and span timestamp in the
// module funnels through this one annotated site.
func Now() Stamp {
	//detlint:allow walltime — obs is out-of-band telemetry, excluded from the determinism contract (docs/observability.md)
	return Stamp(float64(time.Now().UnixNano()) / 1e9)
}

// Seconds returns the stamp as plain seconds.
func (s Stamp) Seconds() float64 { return float64(s) }

// Since returns the seconds elapsed since an earlier stamp, clamped to
// be non-negative (the wall clock may step backwards; telemetry must
// not produce negative latencies).
func Since(s Stamp) float64 {
	d := float64(Now() - s)
	if d < 0 {
		return 0
	}
	return d
}

// Build identifies the running binary for /v1/healthz: the Go
// toolchain version, the main module path/version, and the VCS
// revision when the build embedded one.
type Build struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	Version   string `json:"version,omitempty"`
	Revision  string `json:"revision,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
}

// BuildInfo reads the binary's embedded build information, once: the
// result is memoized for every /v1/healthz that reports it. The second
// result is false when the binary was built without module support
// (never the case for this module's daemons, but callers stay total).
var BuildInfo = sync.OnceValues(func() (Build, bool) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return Build{}, false
	}
	b := Build{GoVersion: bi.GoVersion, Module: bi.Main.Path, Version: bi.Main.Version}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
		case "vcs.modified":
			b.Modified = s.Value == "true"
		}
	}
	return b, true
})

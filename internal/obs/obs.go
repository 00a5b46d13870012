// Package obs is the job observability layer: a lightweight,
// allocation-conscious tracing and metrics subsystem the engine threads
// through every pipeline stage, so the per-phase time and byte attribution
// the paper's evaluation depends on (transform, codec, spill, shuffle,
// merge, reduce) is measurable on a live run instead of reconstructed from
// end-of-job counters.
//
// Three pieces:
//
//   - Tracer (trace.go): start/end span events — job → task attempt →
//     phase — recorded into a lock-sharded in-memory ring. Attempt spans
//     carry an outcome (won, lost, failed, canceled), so retries,
//     speculative twins, and fault-injected attempts are distinguishable
//     in the trace. Export as Chrome trace_event JSON (chrome://tracing,
//     Perfetto) or a human-readable timeline.
//
//   - Registry (metrics.go): typed counter/gauge/histogram handles. The
//     hot path is a single atomic add — no locks, no allocation; the
//     registry mutex guards registration only. Snapshots render as a text
//     table or Prometheus exposition format.
//
//   - Server (server.go): an opt-in HTTP debug endpoint serving /metrics,
//     /trace, net/http/pprof, and expvar.
//
// Everything is nil-safe: a nil *Tracer, nil *Registry, or zero-value
// handle no-ops, so instrumented code calls unconditionally and a job
// without an Observer pays only a nil check. The engine-wide invariant is
// that observability never alters the data path: job output bytes and
// payload counters are byte-identical with tracing on or off (asserted by
// TestObservabilityByteIdentity in internal/mapreduce).
package obs

import (
	"io"
	"os"
	"path/filepath"
)

// Observer bundles the tracing and metrics sides of one observed job (or
// process). A nil *Observer disables both.
type Observer struct {
	Tracer  *Tracer
	Metrics *Registry
}

// New returns an Observer with a default-capacity Tracer and an empty
// Registry.
func New() *Observer {
	return &Observer{Tracer: NewTracer(0), Metrics: NewRegistry()}
}

// T returns the tracer, nil when o is nil (safe to call Start on).
func (o *Observer) T() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// R returns the registry, nil when o is nil (safe to create handles from).
func (o *Observer) R() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// WriteFile streams a renderer (WriteChromeTrace, WritePrometheus) into
// path atomically: the bytes land in a temp file in the same directory and
// rename over the target, so no reader — and no interrupted run — ever
// observes a truncated render.
func WriteFile(path string, render func(w io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	return os.Rename(f.Name(), path)
}

// Command scijob runs the paper's sliding-window query end-to-end on the
// in-process cluster under a chosen key shape and map-output codec and
// prints the Hadoop-style counters plus the modeled runtime. Every strategy
// takes any -codec; "transform" is the baseline keys under the predictive
// transform stacked on -codec. Examples:
//
//	scijob -side 256 -strategy baseline
//	scijob -side 256 -strategy transform -codec zlib
//	scijob -side 256 -strategy aggregation -curve zorder -verify
//	scijob -side 256 -strategy aggregation -codec zlib -verify
//	scijob -side 128 -faults "seed=7;map:1:error@0;segment:2.0:corrupt@0" -retries 3 -verify
//	scijob -side 128 -shuffle tcp -faults "seed=7;net:*:cut@0;node:0:down=50ms" -retries 5 -backoff 10ms -verify
//	scijob -side 256 -strategy transform -debug-addr 127.0.0.1:6060 -trace-out trace.json
//
// Cluster mode runs the same job across real processes — a coordinator
// daemon grants task leases over TCP and journals every state transition,
// while workers execute attempts — so kill -9 recovery is exercised for
// real, the coordinator included:
//
//	scijob -cluster 3 -side 64 -verify
//	scijob -cluster 3 -side 64 -faults "seed=1;proc:0.0:kill@0;proc:coord.0:kill@5" -retries 4 -verify
//	scijob -coordinator 127.0.0.1:7070 -journal coord.journal -side 128 &
//	scijob -worker 127.0.0.1:7070 &            (on each node)
//	scijob -driver 127.0.0.1:7070 -side 128 -verify
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"scikey/internal/cluster"
	"scikey/internal/core"
	"scikey/internal/mapreduce"
	"scikey/internal/obs"
	"scikey/internal/queryd"
	"scikey/internal/scihadoop"
	"scikey/internal/stats"
	"scikey/internal/workload"
)

// options is everything the command line sets. The query-shaping flags are
// bound straight into spec — the value every execution path builds its job
// from — so a new QuerySpec field needs one flag registration here and
// nothing else in this command.
type options struct {
	fs   *flag.FlagSet
	spec queryd.QuerySpec
	// forwarded names the flags the -cluster supervisor hands to its
	// coordinator subprocess: the spec-bound ones plus the daemon's own.
	forwarded []string
	// owner maps each flag only one mode honours to that mode (an own* tag);
	// set outside it, the flag would be dropped silently, so checkModes
	// rejects it.
	owner map[string]string

	heartbeat, leaseTTL time.Duration
	// run and shuffle take the run-time flags: how the job is scheduled,
	// bounded and transported, never what it computes.
	run     mapreduce.RunOptions
	shuffle mapreduce.ShuffleConfig
	serve   serveConfig

	verify                                     bool
	debugAddr, traceOut, metricsOut            string
	submitAddr, scrapeURL                      string
	coordAddr, workerAddr, driverAddr, journal string
	clusterN                                   int
}

// The modes that own flags, named as error messages name them.
const (
	ownCoord   = "-cluster or -coordinator"
	ownServe   = "-serve"
	ownSubmit  = "-submit"
	ownShuffle = "-shuffle tcp"
)

// bindFlags registers every scijob flag on fs.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{fs: fs, owner: make(map[string]string)}
	// own tags every flag register adds as honoured only under mode.
	own := func(mode string, register func()) {
		had := make(map[string]bool)
		fs.VisitAll(func(f *flag.Flag) { had[f.Name] = true })
		register()
		fs.VisitAll(func(f *flag.Flag) {
			if !had[f.Name] {
				o.owner[f.Name] = mode
			}
		})
	}
	s, def := &o.spec, scihadoop.QueryConfig{}.WithDefaults()
	fs.IntVar(&s.Side, "side", 128, "grid side length (side x side int32 cells)")
	fs.StringVar(&s.Strategy, "strategy", "baseline", "key shape: baseline | aggregation | boxes, or transform (baseline keys under -codec transform+C)")
	fs.StringVar(&s.Codec, "codec", "", "map-output codec of every strategy: [block+][transform+]none|gzip|zlib|bzip2, block+ running the whole stack through the parallel block pipeline (empty = none); under -strategy transform, the codec under the predictor (empty = zlib)")
	fs.StringVar(&s.Curve, "curve", def.Curve, "curve for -strategy aggregation: zorder | hilbert | rowmajor")
	fs.StringVar(&s.Op, "op", def.Op.String(), "window operator: median | max")
	fs.BoolVar(&s.Combine, "combine", false, "in-node combining: pool committed map outputs per node group and fold duplicate keys with the operator's value monoid before the shuffle; requires -op max (median is holistic — no monoid exists)")
	fs.IntVar(&s.CombineNodes, "combine-nodes", 0, "node-group count for -combine (0 = 3, the shuffle's default node count, in every mode)")
	fs.IntVar(&s.Radius, "radius", def.Radius, "window radius (1 = 3x3)")
	fs.IntVar(&s.Splits, "splits", def.NumSplits, "map tasks")
	fs.IntVar(&s.Reducers, "reducers", def.NumReducers, "reduce tasks")
	fs.IntVar(&s.Flush, "flush", 0, "aggregation flush threshold in cells (0 = default)")
	fs.StringVar(&s.Faults, "faults", "", `deterministic fault schedule, e.g. "seed=7;map:1:error@0;proc:0.0:kill@0"`)
	own(ownCoord, func() {
		fs.DurationVar(&o.heartbeat, "heartbeat", 0, "cluster worker heartbeat interval (0 = default 100ms)")
		fs.DurationVar(&o.leaseTTL, "lease-ttl", 0, "cluster lease time-to-live without a renewing heartbeat (0 = default 5x heartbeat)")
	})
	fs.VisitAll(func(f *flag.Flag) { o.forwarded = append(o.forwarded, f.Name) })

	own(ownSubmit, func() {
		fs.StringVar(&s.Tenant, "tenant", "", "tenant name for -submit quota accounting (empty = the default tenant)")
	})
	fs.BoolVar(&o.verify, "verify", false, "check results against the reference implementation")
	fs.IntVar(&o.run.Retry.MaxAttempts, "retries", 1, "max attempts per task (1 = fail fast)")
	fs.DurationVar(&o.run.Retry.Backoff, "backoff", 0, "base retry backoff as a duration, e.g. 10ms; doubles per failure with seeded jitter (0 = retry immediately)")
	fs.DurationVar(&o.run.Retry.SpeculativeAfter, "speculate", 0, "straggler threshold for speculative re-execution as a duration, e.g. 500ms (0 = off)")
	fs.StringVar(&o.shuffle.Mode, "shuffle", mapreduce.ShuffleMem, "shuffle transport: mem (in-process hand-off) | tcp (per-node segment servers on loopback sockets)")
	own(ownShuffle, func() {
		fs.IntVar(&o.shuffle.Nodes, "nodes", 0, "simulated shuffle-server count for -shuffle tcp (0 = default 3)")
		fs.IntVar(&o.shuffle.FetchAttempts, "fetch-attempts", 0, "per-segment fetch attempts before the map output counts as lost (0 = default 4)")
		fs.DurationVar(&o.shuffle.FetchTimeout, "fetch-timeout", 0, "per-attempt fetch deadline as a duration, e.g. 500ms (0 = default 2s)")
	})
	fs.DurationVar(&o.run.Timeout, "timeout", 0, "whole-job wall-clock deadline as a duration, e.g. 30s (0 = none)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve /metrics, /trace and /debug/pprof on this address, e.g. 127.0.0.1:6060; stays up after the job until interrupted (empty = off)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the job's Chrome trace_event JSON to this file (empty = off)")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write the job's metrics in Prometheus text format to this file (empty = off)")
	fs.StringVar(&o.serve.addr, "serve", "", "resident query service: listen for /query, /metrics, /healthz on this address, e.g. 127.0.0.1:8080 (host:0 picks a port), and serve until SIGTERM (empty = off)")
	fs.StringVar(&o.submitAddr, "submit", "", "submit this invocation's query flags to the resident service at this address and print its response (empty = off)")
	fs.StringVar(&o.scrapeURL, "scrape", "", "GET this URL (e.g. a -serve /metrics endpoint) and print the body — a curl stand-in for scripts (empty = off)")
	own(ownServe, func() {
		fs.IntVar(&o.serve.queueDepth, "queue-depth", 0, "bound on queued-but-not-executing queries for -serve (0 = default 16)")
		fs.IntVar(&o.serve.workers, "serve-workers", 0, "concurrent query executors for -serve (0 = default 2)")
		fs.Float64Var(&o.serve.quota, "quota", 0, "default per-tenant quota in modeled seconds for -serve (0 = unlimited)")
		fs.StringVar(&o.serve.quotas, "quotas", "", `per-tenant quota overrides for -serve, e.g. "alice=30,bob=5" in modeled seconds (empty = none)`)
	})
	fs.StringVar(&o.coordAddr, "coordinator", "", "cluster coordinator daemon: listen for workers and drivers on this address, e.g. 127.0.0.1:7070, and serve until SIGTERM (empty = off)")
	fs.StringVar(&o.workerAddr, "worker", "", "cluster worker mode: connect to the coordinator at this address and execute granted task attempts (empty = off)")
	fs.StringVar(&o.driverAddr, "driver", "", "cluster driver mode: run the job's scheduler against the coordinator daemon at this address (empty = off)")
	fs.StringVar(&o.journal, "journal", "", "coordinator journal file for crash-restart recovery; with -cluster, empty means a temp file (with -coordinator, empty disables the journal)")
	fs.IntVar(&o.clusterN, "cluster", 0, "local cluster mode: start a coordinator plus N real worker subprocesses and run the job across them (0 = off)")
	fs.IntVar(&o.run.Parallelism, "par", 0, "concurrent task attempts (0 = one at a time; cluster modes default to 2x worker count); however many run, at most GOMAXPROCS compute at once, and an attempt's measured time starts when it gets a core")
	return o
}

// parseFlags binds, parses and validates a command line. Every flag is
// checked before any job machinery is touched, so a typo'd transport or
// malformed fault schedule fails in milliseconds with a clear message
// instead of surfacing mid-job. The query-shaping flags all validate through
// queryd.QuerySpec.Validate — the same check every other execution path
// (resident service, cluster worker rebuilding a wire spec) applies, so a
// bad combination rejects with identical error text no matter how the query
// arrives.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := o.spec.Validate(); err != nil {
		return nil, err
	}
	return o, o.checkModes()
}

// checkModes rejects flag combinations no mode honours.
func (o *options) checkModes() error {
	switch o.shuffle.Mode {
	case mapreduce.ShuffleMem, mapreduce.ShuffleTCP:
	default:
		return fmt.Errorf("unknown -shuffle transport %q (want mem or tcp)", o.shuffle.Mode)
	}
	count := func(on ...bool) (n int) {
		for _, b := range on {
			if b {
				n++
			}
		}
		return n
	}
	// jobless counts the selected modes that run no job in this process.
	jobless := count(o.coordAddr != "", o.workerAddr != "", o.serve.addr != "", o.submitAddr != "", o.scrapeURL != "")
	if jobless+count(o.driverAddr != "", o.clusterN != 0) > 1 {
		return fmt.Errorf("-coordinator, -worker, -driver, -cluster, -serve, -submit, and -scrape are mutually exclusive")
	}
	if o.clusterN < 0 {
		return fmt.Errorf("-cluster wants a positive worker count, got %d", o.clusterN)
	}
	if o.journal != "" && o.coordAddr == "" && o.clusterN == 0 {
		return fmt.Errorf("-journal belongs to the coordinator; use it with -coordinator or -cluster")
	}
	if (o.clusterMode() || o.coordAddr != "" || o.workerAddr != "") && o.shuffle.Mode != mapreduce.ShuffleMem {
		return fmt.Errorf("cluster modes use the in-memory shuffle; -shuffle %s runs single-process only", o.shuffle.Mode)
	}
	if jobless > 0 && (o.verify || o.traceOut != "" || o.metricsOut != "") {
		return fmt.Errorf("-verify, -trace-out and -metrics-out act on the job this invocation runs; -coordinator, -worker, -serve, -submit and -scrape run none")
	}
	selected := map[string]bool{
		ownCoord:   o.clusterN > 0 || o.coordAddr != "",
		ownServe:   o.serve.addr != "",
		ownSubmit:  o.submitAddr != "",
		ownShuffle: o.shuffle.Mode != mapreduce.ShuffleMem,
	}
	var stray error
	o.fs.Visit(func(f *flag.Flag) {
		if mode, owned := o.owner[f.Name]; owned && !selected[mode] && stray == nil {
			stray = fmt.Errorf("-%s only takes effect with %s", f.Name, mode)
		}
	})
	return stray
}

// clusterMode reports whether this invocation drives a job on a cluster.
func (o *options) clusterMode() bool { return o.driverAddr != "" || o.clusterN > 0 }

// coordinatorArgs renders the forwarded flags for the -cluster coordinator
// subprocess, so the daemon builds the identical job: each one whose bound
// value differs from its default.
func (o *options) coordinatorArgs() []string {
	var args []string
	for _, name := range o.forwarded {
		if f := o.fs.Lookup(name); f.Value.String() != f.DefValue {
			args = append(args, "-"+name+"="+f.Value.String())
		}
	}
	return args
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fatal(err)
	}

	if o.scrapeURL != "" {
		runScrape(o.scrapeURL)
		return
	}
	if o.serve.addr != "" {
		runServeMode(o.serve)
		return
	}
	if o.submitAddr != "" {
		runSubmitMode(o.submitAddr, o.spec)
		return
	}
	if o.workerAddr != "" {
		runWorkerMode(o.workerAddr)
		return
	}
	if o.coordAddr != "" {
		runCoordinatorMode(o)
		return
	}

	if err := runJob(o); err != nil {
		fatal(err)
	}
}

// runJob runs the query in this process or, under -cluster and -driver, on a
// cluster, and reports it. Every failure is returned, never os.Exit, so the
// deferred shutdowns run on all of them: a failed -cluster job takes its
// coordinator and worker subprocesses down with it.
func runJob(o *options) error {
	spec := o.spec
	// The query itself comes from the spec, exactly as the service, the
	// cluster workers and the benchmark build it; only the run-time fields
	// — scheduling, transport, observability — are layered on top.
	fs, qcfg, strat, err := spec.Setup()
	if err != nil {
		return err
	}
	inj := qcfg.Faults
	qcfg.RunOptions = o.run
	qcfg.Faults = inj
	if o.shuffle.Mode != mapreduce.ShuffleMem {
		qcfg.Shuffle = &o.shuffle
	}
	var ob *obs.Observer
	if o.debugAddr != "" || o.traceOut != "" || o.metricsOut != "" {
		ob = obs.New()
		qcfg.Obs = ob
	}
	var dbg *obs.Server
	if o.debugAddr != "" {
		var err error
		dbg, err = obs.NewServer(o.debugAddr, ob)
		if err != nil {
			return err
		}
		fmt.Printf("debug server on http://%s (metrics, trace, pprof)\n", dbg.Addr())
	}
	if o.clusterMode() {
		// The coordinator daemon owns the proc fault site (it signals real
		// worker processes, or itself for proc:coord rules); engine-level
		// sites travel to workers inside the spec. The driver's own scheduler
		// runs no attempts, so it gets no injector.
		addr, workers := o.driverAddr, 4 // external workers; a guess that only sizes parallelism
		patience := time.Duration(0)
		if o.clusterN > 0 {
			var err error
			if addr, err = pickLoopbackAddr(); err != nil {
				return err
			}
			journal := o.journal
			if journal == "" {
				dir, err := os.MkdirTemp("", "scijob-coord-")
				if err != nil {
					return err
				}
				defer os.RemoveAll(dir)
				journal = filepath.Join(dir, "coord.journal")
			}
			// Respawned incarnations recover from the shared journal on the
			// same fixed address.
			coord, err := startSupervisor("coordinator", 1,
				append([]string{"-coordinator", addr, "-journal", journal}, o.coordinatorArgs()...))
			if err != nil {
				return err
			}
			defer coord.shutdown()
			fmt.Printf("coordinator subprocess on %s (journal %s)\n", addr, journal)
			workers = o.clusterN
			pool, err := startSupervisor("worker", workers, []string{"-worker", addr})
			if err != nil {
				return err
			}
			defer pool.shutdown()
			fmt.Printf("spawned %d worker processes\n", workers)
			patience = 10 * time.Second // the subprocess may still be binding
		}
		cl, err := dialCoordinator(addr, patience)
		if err != nil {
			return fmt.Errorf("dialing coordinator at %s: %w", addr, err)
		}
		defer cl.Close()
		qcfg.Remote = cl
		qcfg.Faults = nil
		if qcfg.Parallelism == 0 {
			qcfg.Parallelism = 2 * workers
		}
	}

	rep, res, err := core.RunQueryResult(fs, qcfg, strat, cluster.Paper(), o.verify)
	// Flush observability before acting on the outcome: a failed job's trace
	// and metrics are exactly what a post-mortem needs, so -trace-out and
	// -metrics-out land on every exit path, not just success.
	if err := errors.Join(err, flushObs(ob, o.traceOut, o.metricsOut)); err != nil {
		return err
	}
	sha, err := queryd.OutputSHA(fs, res)
	if err != nil {
		return err
	}

	fmt.Printf("job: %s %s on %dx%d grid, %d splits, %d reducers\n",
		qcfg.Op, rep.Strategy, spec.Side, spec.Side, spec.Splits, spec.Reducers)
	fmt.Printf("  map output records:            %s\n", stats.FormatBytes(rep.MapOutputRecords))
	fmt.Printf("  map output key bytes:          %s\n", stats.FormatBytes(rep.KeyBytes))
	fmt.Printf("  map output value bytes:        %s\n", stats.FormatBytes(rep.ValueBytes))
	fmt.Printf("  map output materialized bytes: %s\n", stats.FormatBytes(rep.MaterializedBytes))
	fmt.Printf("  reduce shuffle bytes:          %s\n", stats.FormatBytes(rep.ShuffleBytes))
	if spec.Combine {
		fmt.Printf("  in-node combining:             %s records folded, %s emitted, %s saved\n",
			stats.FormatBytes(rep.CombineMergedRecords),
			stats.FormatBytes(rep.CombineEmittedRecords),
			stats.FormatBytes(rep.CombineSavedBytes))
	}
	fmt.Printf("  partition key splits:          %s\n", stats.FormatBytes(rep.PartitionSplits))
	fmt.Printf("  overlap key splits:            %s\n", stats.FormatBytes(rep.OverlapSplits))
	fmt.Printf("  output sha256:                 %s\n", sha)
	fmt.Printf("  modeled runtime (5-node cluster): map %.1fs + reduce %.1fs = %.1fs\n",
		rep.Estimate.MapSeconds, rep.Estimate.ReduceSeconds, rep.Estimate.Total())
	if rep.ShuffleFetches > 0 {
		fmt.Printf("  shuffle transport: %d fetches, %d retries, %d resumed, %s wasted, %d breaker trips\n",
			rep.ShuffleFetches, rep.ShuffleFetchRetries, rep.ShuffleFetchesResumed,
			stats.FormatBytes(rep.ShuffleFetchWastedBytes), rep.ShuffleBreakerTrips)
	}
	if rep.FailedAttempts > 0 || rep.TaskRetries > 0 {
		fmt.Printf("  recovery: %d failed attempts, %d retries, %d corrupt segments, %d maps recovered\n",
			rep.FailedAttempts, rep.TaskRetries, rep.CorruptSegments, rep.RecoveredMaps)
		fmt.Printf("  wasted slot time: map %.1fs + reduce %.1fs\n",
			rep.Estimate.WastedMapSeconds, rep.Estimate.WastedReduceSeconds)
	}

	if o.verify {
		field := &workload.Field{Extent: qcfg.DS.Extent, Name: qcfg.DS.Var.Name}
		want := scihadoop.Reference(field, qcfg.DS.Extent, qcfg.Radius, qcfg.Op)
		bad := 0
		for k, w := range want {
			if rep.Output[k] != w {
				bad++
			}
		}
		if bad > 0 || len(rep.Output) != len(want) {
			return fmt.Errorf("verification FAILED: %d/%d cells wrong, %d/%d cells present",
				bad, len(want), len(rep.Output), len(want))
		}
		fmt.Printf("  verification: OK (%d cells match the reference)\n", len(want))
	}

	if dbg != nil {
		fmt.Printf("job done; debug server still on http://%s — ctrl-c to exit\n", dbg.Addr())
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
		dbg.Close()
	}
	return nil
}

// flushObs writes the requested trace and metrics files. It runs on success
// and failure alike, so a failed job still leaves its post-mortem evidence.
func flushObs(ob *obs.Observer, traceOut, metricsOut string) error {
	if traceOut != "" {
		if err := obs.WriteFile(traceOut, ob.T().WriteChromeTrace); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (open in chrome://tracing or Perfetto)\n", traceOut)
	}
	if metricsOut != "" {
		if err := obs.WriteFile(metricsOut, ob.R().WritePrometheus); err != nil {
			return err
		}
		fmt.Printf("metrics written to %s\n", metricsOut)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scijob:", err)
	os.Exit(1)
}

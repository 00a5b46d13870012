// Command scijob runs the paper's sliding-window query end-to-end on the
// in-process cluster under a chosen intermediate-data strategy and prints
// the Hadoop-style counters plus the modeled runtime. Examples:
//
//	scijob -side 256 -strategy baseline
//	scijob -side 256 -strategy transform -codec zlib
//	scijob -side 256 -strategy aggregation -curve zorder -verify
//	scijob -side 128 -faults "seed=7;map:1:error@0;segment:2.0:corrupt@0" -retries 3 -verify
//	scijob -side 128 -shuffle net -faults "seed=7;net:*:cut@0;node:0:down=50ms" -retries 5 -backoff 10ms -verify
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
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"scikey/internal/cluster"
	"scikey/internal/clusterd"
	"scikey/internal/core"
	"scikey/internal/experiments"
	"scikey/internal/faults"
	"scikey/internal/mapreduce"
	"scikey/internal/obs"
	"scikey/internal/queryd"
	"scikey/internal/scihadoop"
	"scikey/internal/workload"
)

func main() {
	side := flag.Int("side", 128, "grid side length (side x side int32 cells)")
	stratName := flag.String("strategy", "baseline", "baseline | transform | aggregation | boxes")
	codecName := flag.String("codec", "zlib", "inner codec for -strategy transform; a block+ prefix (e.g. block+zlib) runs the stack through the parallel block pipeline")
	codecWorkers := flag.Int("codec-workers", 0, "parallel block codec width for block+ codecs: 0 = GOMAXPROCS, 1 = sequential reference path, n = n workers")
	curve := flag.String("curve", "zorder", "curve for -strategy aggregation: zorder | hilbert | rowmajor")
	op := flag.String("op", "median", "window operator: median | max")
	combine := flag.Bool("combine", false, "in-node combining: pool committed map outputs per node group and fold duplicate keys with the operator's value monoid before the shuffle; requires -op max (median is holistic — no monoid exists)")
	combineNodes := flag.Int("combine-nodes", 0, "node-group count for -combine (0 = one group per shuffle node when networked, else one; cluster mode defaults to the worker count, one combine buffer per worker process)")
	radius := flag.Int("radius", 1, "window radius (1 = 3x3)")
	splits := flag.Int("splits", 10, "map tasks")
	reducers := flag.Int("reducers", 5, "reduce tasks")
	flush := flag.Int("flush", 0, "aggregation flush threshold in cells (0 = default)")
	verify := flag.Bool("verify", false, "check results against the reference implementation")
	faultSpec := flag.String("faults", "", `deterministic fault schedule, e.g. "seed=7;map:1:error@0;proc:0.0:kill@0"`)
	retries := flag.Int("retries", 1, "max attempts per task (1 = fail fast)")
	backoff := flag.Duration("backoff", 0, "base retry backoff as a duration, e.g. 10ms; doubles per failure with seeded jitter (0 = retry immediately)")
	speculate := flag.Duration("speculate", 0, "straggler threshold for speculative re-execution as a duration, e.g. 500ms (0 = off)")
	shuffle := flag.String("shuffle", "mem", "shuffle transport: mem | net (in-process pipes) | tcp (loopback sockets)")
	nodes := flag.Int("nodes", 0, "simulated shuffle-server count for -shuffle net|tcp (0 = default 3)")
	fetchAttempts := flag.Int("fetch-attempts", 0, "per-segment fetch attempts before the map output counts as lost (0 = default 4)")
	fetchTimeout := flag.Duration("fetch-timeout", 0, "per-attempt fetch deadline as a duration, e.g. 500ms (0 = default 2s)")
	timeout := flag.Duration("timeout", 0, "whole-job wall-clock deadline as a duration, e.g. 30s (0 = none)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /trace and /debug/pprof on this address, e.g. 127.0.0.1:6060; stays up after the job until interrupted (empty = off)")
	traceOut := flag.String("trace-out", "", "write the job's Chrome trace_event JSON to this file (empty = off)")
	metricsOut := flag.String("metrics-out", "", "write the job's metrics in Prometheus text format to this file (empty = off)")
	serveAddr := flag.String("serve", "", "resident query service: listen for /query, /metrics, /healthz on this address, e.g. 127.0.0.1:8080 (host:0 picks a port), and serve until SIGTERM (empty = off)")
	submitAddr := flag.String("submit", "", "submit this invocation's query flags to the resident service at this address and print its response (empty = off)")
	scrapeURL := flag.String("scrape", "", "GET this URL (e.g. a -serve /metrics endpoint) and print the body — a curl stand-in for scripts (empty = off)")
	tenant := flag.String("tenant", "", "tenant name for -submit quota accounting (empty = the default tenant)")
	storeKind := flag.String("store", "local", "segment-cache backend for -serve: local (HDFS-backed files) | object (S3-style chunked objects with CRC framing)")
	queueDepth := flag.Int("queue-depth", 0, "bound on queued-but-not-executing queries for -serve (0 = default 16)")
	serveWorkers := flag.Int("serve-workers", 0, "concurrent query executors for -serve (0 = default 2)")
	quota := flag.Float64("quota", 0, "default per-tenant quota in modeled seconds for -serve (0 = unlimited)")
	quotas := flag.String("quotas", "", `per-tenant quota overrides for -serve, e.g. "alice=30,bob=5" in modeled seconds (empty = none)`)
	coordAddr := flag.String("coordinator", "", "cluster coordinator daemon: listen for workers and drivers on this address, e.g. 127.0.0.1:7070, and serve until SIGTERM (empty = off)")
	workerAddr := flag.String("worker", "", "cluster worker mode: connect to the coordinator at this address and execute granted task attempts (empty = off)")
	driverAddr := flag.String("driver", "", "cluster driver mode: run the job's scheduler against the coordinator daemon at this address (empty = off)")
	journalPath := flag.String("journal", "", "coordinator journal file for crash-restart recovery; with -cluster, empty means a temp file (with -coordinator, empty disables the journal)")
	clusterN := flag.Int("cluster", 0, "local cluster mode: start a coordinator plus N real worker subprocesses and run the job across them (0 = off)")
	heartbeat := flag.Duration("heartbeat", 0, "cluster worker heartbeat interval (0 = default 100ms)")
	leaseTTL := flag.Duration("lease-ttl", 0, "cluster lease time-to-live without a renewing heartbeat (0 = default 5x heartbeat)")
	par := flag.Int("par", 0, "concurrent task attempts (0 = sequential; cluster modes default to 2x worker count)")
	flag.Parse()

	if *combine && *combineNodes == 0 && *clusterN > 0 {
		// One combine buffer per worker process: each worker's map attempts
		// pool in its own node group, the cluster analog of a per-node
		// buffer shared by all of a node's mappers.
		*combineNodes = *clusterN
	}
	// Validate every flag before any job machinery is touched, so a typo'd
	// transport or malformed fault schedule fails in milliseconds with a
	// clear message instead of surfacing mid-job. The query-shaping flags
	// all validate through queryd.QuerySpec.Validate — the same check every
	// other execution path (resident service, cluster worker rebuilding a
	// wire spec) applies, so a bad combination rejects with identical error
	// text no matter how the query arrives — and the one-shot run below
	// builds its job from the same spec through spec.Setup.
	spec := queryd.QuerySpec{
		Side:         *side,
		Strategy:     *stratName,
		Codec:        *codecName,
		CodecWorkers: *codecWorkers,
		Curve:        *curve,
		Flush:        *flush,
		Op:           *op,
		Combine:      *combine,
		CombineNodes: *combineNodes,
		Radius:       *radius,
		Splits:       *splits,
		Reducers:     *reducers,
		Faults:       *faultSpec,
		Tenant:       *tenant,
	}
	if err := validateCodecWorkers(*codecWorkers, *stratName, *codecName); err != nil {
		fatal(err)
	}
	if err := spec.Validate(); err != nil {
		fatal(err)
	}
	switch *shuffle {
	case mapreduce.ShuffleMem, mapreduce.ShuffleNet, mapreduce.ShuffleTCP:
	default:
		fatal(fmt.Errorf("unknown -shuffle transport %q (want mem, net, or tcp)", *shuffle))
	}
	modes := 0
	for _, on := range []bool{*coordAddr != "", *workerAddr != "", *driverAddr != "", *clusterN != 0,
		*serveAddr != "", *submitAddr != "", *scrapeURL != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fatal(fmt.Errorf("-coordinator, -worker, -driver, -cluster, -serve, -submit, and -scrape are mutually exclusive"))
	}
	if *clusterN < 0 {
		fatal(fmt.Errorf("-cluster wants a positive worker count, got %d", *clusterN))
	}
	if *journalPath != "" && *coordAddr == "" && *clusterN == 0 {
		fatal(fmt.Errorf("-journal belongs to the coordinator; use it with -coordinator or -cluster"))
	}
	clusterMode := *driverAddr != "" || *clusterN > 0
	if (clusterMode || *coordAddr != "" || *workerAddr != "") && *shuffle != mapreduce.ShuffleMem {
		fatal(fmt.Errorf("cluster modes use the in-memory shuffle; -shuffle %s runs single-process only", *shuffle))
	}

	if *scrapeURL != "" {
		runScrape(*scrapeURL)
		return
	}
	if *serveAddr != "" {
		runServeMode(serveConfig{
			addr:       *serveAddr,
			storeKind:  *storeKind,
			queueDepth: *queueDepth,
			workers:    *serveWorkers,
			quota:      *quota,
			quotas:     *quotas,
		})
		return
	}
	if *submitAddr != "" {
		runSubmitMode(*submitAddr, spec)
		return
	}
	if *workerAddr != "" {
		runWorkerMode(*workerAddr)
		return
	}
	if *coordAddr != "" {
		// The daemon owns the proc fault site; Validate already parsed the
		// schedule once, so this cannot fail.
		inj, err := faults.NewFromSpec(*faultSpec)
		if err != nil {
			fatal(err)
		}
		runCoordinatorMode(coordinatorConfig{
			addr:      *coordAddr,
			journal:   *journalPath,
			spec:      spec,
			heartbeat: *heartbeat,
			leaseTTL:  *leaseTTL,
			faults:    inj,
			debugAddr: *debugAddr,
		})
		return
	}

	// The query itself comes from the spec, exactly as the service, the
	// cluster workers and the benchmark build it; only the run-time fields
	// — scheduling, transport, observability — are layered on top.
	fs, qcfg, strat, err := spec.Setup()
	if err != nil {
		fatal(err)
	}
	qcfg.Retry = mapreducePolicy(*retries, *backoff, *speculate)
	qcfg.Timeout = *timeout
	qcfg.Parallelism = *par
	var ob *obs.Observer
	if *debugAddr != "" || *traceOut != "" || *metricsOut != "" {
		ob = obs.New()
		qcfg.Obs = ob
	}
	var dbg *obs.Server
	if *debugAddr != "" {
		var err error
		dbg, err = obs.NewServer(*debugAddr, ob)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("debug server on http://%s (metrics, trace, pprof)\n", dbg.Addr())
	}
	if *shuffle != mapreduce.ShuffleMem {
		qcfg.Shuffle = &mapreduce.ShuffleConfig{
			Mode:          *shuffle,
			Nodes:         *nodes,
			FetchAttempts: *fetchAttempts,
			FetchTimeout:  *fetchTimeout,
		}
	}

	workers := 0
	if clusterMode {
		// The coordinator daemon owns the proc fault site (it signals real
		// worker processes, or itself for proc:coord rules); engine-level
		// sites travel to workers inside the spec. The driver's own scheduler
		// runs no attempts, so it gets no injector.
		var cl *clusterd.Client
		if *clusterN > 0 {
			addr, err := pickLoopbackAddr()
			if err != nil {
				fatal(err)
			}
			journal := *journalPath
			if journal == "" {
				dir, err := os.MkdirTemp("", "scijob-coord-")
				if err != nil {
					fatal(err)
				}
				defer os.RemoveAll(dir)
				journal = filepath.Join(dir, "coord.journal")
			}
			// Forward every spec-shaping flag so the daemon subprocess builds
			// the identical job; respawned incarnations recover from the
			// shared journal on the same fixed address.
			coordArgs := []string{
				"-coordinator", addr, "-journal", journal,
				"-side", strconv.Itoa(*side), "-strategy", *stratName,
				"-codec", *codecName, "-curve", *curve,
				"-flush", strconv.Itoa(*flush), "-op", *op,
				"-radius", strconv.Itoa(*radius), "-splits", strconv.Itoa(*splits),
				"-reducers", strconv.Itoa(*reducers),
			}
			if flagWasSet("codec-workers") {
				coordArgs = append(coordArgs, "-codec-workers", strconv.Itoa(*codecWorkers))
			}
			if *combine {
				coordArgs = append(coordArgs, "-combine", "-combine-nodes", strconv.Itoa(*combineNodes))
			}
			if *faultSpec != "" {
				coordArgs = append(coordArgs, "-faults", *faultSpec)
			}
			if *heartbeat != 0 {
				coordArgs = append(coordArgs, "-heartbeat", heartbeat.String())
			}
			if *leaseTTL != 0 {
				coordArgs = append(coordArgs, "-lease-ttl", leaseTTL.String())
			}
			sup := startCoordProc(coordArgs)
			defer sup.shutdown()
			fmt.Printf("coordinator subprocess on %s (journal %s)\n", addr, journal)
			workers = *clusterN
			pool := startLocalWorkers(addr, *clusterN)
			defer pool.shutdown()
			fmt.Printf("spawned %d worker processes\n", *clusterN)
			cl, err = dialCoordinator(addr, 10*time.Second)
			if err != nil {
				fatal(fmt.Errorf("dialing coordinator subprocess: %w", err))
			}
		} else {
			var err error
			cl, err = dialCoordinator(*driverAddr, 0)
			if err != nil {
				fatal(fmt.Errorf("dialing coordinator at %s: %w", *driverAddr, err))
			}
			workers = 4 // external workers; a guess that only sizes parallelism
		}
		defer cl.Close()
		qcfg.Remote = cl
		qcfg.Faults = nil
		if qcfg.Parallelism == 0 {
			qcfg.Parallelism = 2 * workers
		}
	}

	rep, res, err := core.RunQueryResult(fs, qcfg, strat, cluster.Paper(), *verify)
	// Flush observability before acting on the outcome: a failed job's trace
	// and metrics are exactly what a post-mortem needs, so -trace-out and
	// -metrics-out land on every exit path, not just success.
	flushObs(ob, *traceOut, *metricsOut)
	if err != nil {
		fatal(err)
	}
	sha, err := queryd.OutputSHA(fs, res)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("job: %s %s on %dx%d grid, %d splits, %d reducers\n",
		qcfg.Op, rep.Strategy, *side, *side, *splits, *reducers)
	fmt.Printf("  map output records:            %s\n", experiments.FormatBytes(rep.MapOutputRecords))
	fmt.Printf("  map output key bytes:          %s\n", experiments.FormatBytes(rep.KeyBytes))
	fmt.Printf("  map output value bytes:        %s\n", experiments.FormatBytes(rep.ValueBytes))
	fmt.Printf("  map output materialized bytes: %s\n", experiments.FormatBytes(rep.MaterializedBytes))
	fmt.Printf("  reduce shuffle bytes:          %s\n", experiments.FormatBytes(rep.ShuffleBytes))
	if *combine {
		fmt.Printf("  in-node combining:             %s records folded, %s emitted, %s saved\n",
			experiments.FormatBytes(rep.CombineMergedRecords),
			experiments.FormatBytes(rep.CombineEmittedRecords),
			experiments.FormatBytes(rep.CombineSavedBytes))
	}
	fmt.Printf("  partition key splits:          %s\n", experiments.FormatBytes(rep.PartitionSplits))
	fmt.Printf("  overlap key splits:            %s\n", experiments.FormatBytes(rep.OverlapSplits))
	fmt.Printf("  output sha256:                 %s\n", sha)
	fmt.Printf("  modeled runtime (5-node cluster): map %.1fs + reduce %.1fs = %.1fs\n",
		rep.Estimate.MapSeconds, rep.Estimate.ReduceSeconds, rep.Estimate.Total())
	if rep.ShuffleFetches > 0 {
		fmt.Printf("  shuffle transport: %d fetches, %d retries, %d resumed, %s wasted, %d breaker trips\n",
			rep.ShuffleFetches, rep.ShuffleFetchRetries, rep.ShuffleFetchesResumed,
			experiments.FormatBytes(rep.ShuffleFetchWastedBytes), rep.ShuffleBreakerTrips)
	}
	if rep.FailedAttempts > 0 || rep.TaskRetries > 0 {
		fmt.Printf("  recovery: %d failed attempts, %d retries, %d corrupt segments, %d maps recovered\n",
			rep.FailedAttempts, rep.TaskRetries, rep.CorruptSegments, rep.RecoveredMaps)
		fmt.Printf("  wasted slot time: map %.1fs + reduce %.1fs\n",
			rep.Estimate.WastedMapSeconds, rep.Estimate.WastedReduceSeconds)
	}

	if *verify {
		field := &workload.Field{Extent: qcfg.DS.Extent, Name: qcfg.DS.Var.Name}
		want := scihadoop.Reference(field, qcfg.DS.Extent, qcfg.Radius, qcfg.Op)
		bad := 0
		for k, w := range want {
			if rep.Output[k] != w {
				bad++
			}
		}
		if bad > 0 || len(rep.Output) != len(want) {
			fatal(fmt.Errorf("verification FAILED: %d/%d cells wrong, %d/%d cells present",
				bad, len(want), len(rep.Output), len(want)))
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
}

// validateCodecWorkers rejects a -codec-workers the job would ignore or
// misread, before any machinery starts. Negative widths are always wrong;
// an explicitly set width (flag.Visit distinguishes "-codec-workers 0" from
// an untouched default) demands a block+ transform codec to act on.
func validateCodecWorkers(n int, stratName, codecName string) error {
	if n < 0 {
		return fmt.Errorf("-codec-workers must be >= 0, got %d", n)
	}
	if !flagWasSet("codec-workers") {
		return nil
	}
	if stratName != "transform" || !strings.HasPrefix(strings.ToLower(codecName), "block+") {
		return fmt.Errorf("-codec-workers only applies to -strategy transform with a block+ codec (got -strategy %s -codec %s)", stratName, codecName)
	}
	return nil
}

// flagWasSet reports whether the named flag appeared on the command line,
// distinguishing an explicit zero from an untouched default.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// flushObs writes the requested trace and metrics files. It runs on success
// and failure alike, so a failed job still leaves its post-mortem evidence.
func flushObs(ob *obs.Observer, traceOut, metricsOut string) {
	if traceOut != "" {
		if err := writeFileWith(traceOut, ob.T().WriteChromeTrace); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s (open in chrome://tracing or Perfetto)\n", traceOut)
	}
	if metricsOut != "" {
		if err := writeFileWith(metricsOut, ob.R().WritePrometheus); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics written to %s\n", metricsOut)
	}
}

// writeFileWith streams a writer-taking renderer into path atomically: the
// bytes land in a temp file in the same directory and rename over the
// target, so no reader — and no interrupted run — ever observes a
// truncated render.
func writeFileWith(path string, render func(w io.Writer) error) error {
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

func mapreducePolicy(retries int, backoff, speculate time.Duration) mapreduce.RetryPolicy {
	return mapreduce.RetryPolicy{
		MaxAttempts:      retries,
		Backoff:          backoff,
		Speculative:      speculate > 0,
		SpeculativeAfter: speculate,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scijob:", err)
	os.Exit(1)
}

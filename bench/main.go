// Command bench is the repository's end-to-end benchmark: it runs whole
// sliding-window queries — one-shot, through an in-process three-worker
// cluster, and through the resident query service cold and warm — checks
// every output against the reference implementation, and prints the
// end-to-end metrics of BENCHMARK.json or, in a separate traced run, a
// per-layer ledger of where each second went.
//
//	go run ./bench -workload oneshot-transform -seed 3 -seconds 10 -trace 0
//	go run ./bench -workload cluster3 -trace 1 -trace-out /tmp/cluster3.json
//
// It is one process: no subprocess is started, every server it opens is
// in-process and closed before exit, and it exits 0 only when every query
// succeeded and reproduced the verified output. README.md in this directory
// defines the metrics and workloads and says how to read the ledger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"
)

// options are the harness's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // also write the result, with per-rep detail, here
	traceOut string // write the last traced query's Chrome trace here
	tmpDir   string // parent of the coordinator journal directories
	// side, reps and setups have no flag; the smoke test sets them to shrink a
	// run: a grid side replacing the workload's own, a fixed timed-query
	// count replacing the time window, and a set-up count replacing setUps.
	side, reps, setups int
}

// watchdog ends a run that outlives every budget the driver allows.
const watchdog = 170 * time.Second

// minReps is the fewest timed queries a median is taken over.
const minReps = 5

// setUps is how many times an end-to-end run sets its workload up; setup_s is
// the median. One set-up is a single sample of a seconds-long operation.
const setUps = 3

func main() {
	var o options
	trace := 0
	flag.StringVar(&o.workload, "workload", "", "workload to run (see README.md)")
	flag.Int64Var(&o.seed, "seed", 0, "input seed: 0 runs the nominal grid, s > 0 a grid s mod 4 cells wider")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "0 prints the end-to-end metrics, 1 runs traced and prints the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "also write the result with per-rep detail to this file")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the last traced query's Chrome trace JSON to this file")
	flag.StringVar(&o.tmpDir, "tmpdir", ".bench_tmp", "directory for the cluster workload's journal; created, and removed again if empty")
	flag.Parse()
	o.trace = trace != 0
	if trace != 0 && trace != 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1, and there are no positional arguments")
		os.Exit(2)
	}
	os.Exit(run(o, os.Stdout, os.Stderr))
}

// result is the one JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is what -out adds to the result: enough to judge a run's noise.
type detail struct {
	result
	Workload  string    `json:"workload"`
	Side      int       `json:"side"`
	SHA       string    `json:"output_sha"`
	Noisy     bool      `json:"noisy"`
	NoisyReps int       `json:"noisy_reps"`
	Reps      int       `json:"reps"`
	WallS     []float64 `json:"wall_s"`
	CPUS      []float64 `json:"cpu_s"`
	Steal     []float64 `json:"steal_share"`
	SetupS    []float64 `json:"setup_s"`
	ProbeS    []float64 `json:"probe_s"`
	// HostFactor is what the time metrics were multiplied by to take the
	// host's current speed out of them (see hostProbe); WallS and CPUS above
	// are raw.
	HostFactor float64 `json:"host_factor"`
}

// bench is one run's state.
type bench struct {
	o      options
	w      workloadDef
	side   int
	stderr io.Writer
	// sha and shuffle are the verified warm-up's output digest and shuffle
	// bytes; every later query must reproduce both exactly.
	sha     string
	shuffle int64
	// attempted and failed count operations; the watchdog reads them from
	// another goroutine.
	attempted, failed atomic.Int64
	// A traced run also keeps its untraced twin queries, the first raw
	// segment bytes the codec saw, and the last query's recorder.
	plain   []sample
	capture []byte
	lastRec *recorder
	// setupProbes are the host probe's readings before each set-up.
	setupProbes []float64
}

// fail records a failed operation.
func (b *bench) fail(err error) {
	b.failed.Add(1)
	fmt.Fprintf(b.stderr, "bench: %s: FAILED: %v\n", b.w.name, err)
}

// run executes one workload and returns the process exit code: 0 when every
// operation succeeded, 1 when any failed, 2 on bad usage or a blown watchdog.
func run(o options, stdout, stderr io.Writer) int {
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown -workload %q; have:", o.workload)
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	b := &bench{o: o, w: w, stderr: stderr}
	nominal := w.side
	if o.side > 0 {
		nominal = o.side
	}
	b.side = seedSide(nominal, o.seed)

	if err := os.MkdirAll(o.tmpDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	// Only an empty directory goes: a journal left behind is evidence.
	defer os.Remove(o.tmpDir)

	done := make(chan detail, 1)
	go func() { done <- b.measure(nominal) }()
	var d detail
	select {
	case d = <-done:
	case <-time.After(watchdog):
		fmt.Fprintf(stderr, "bench: %s: watchdog: no result after %v (%d queries attempted, %d failed)\n",
			w.name, watchdog, b.attempted.Load(), b.failed.Load())
		return 2
	}
	if o.out != "" {
		data, err := json.MarshalIndent(d, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: writing -out: %v\n", err)
			return 2
		}
	}
	fmt.Fprintf(stderr, "bench: %s side %d: %d reps, %d noisy, raw wall median %.4fs, host probe %.1fms, sha %.12s, %d attempted, %d failed\n",
		w.name, b.side, d.Reps, d.NoisyReps, median(d.WallS), 1000*median(d.ProbeS), d.SHA, d.Attempted, d.Failed)
	if d.Noisy {
		fmt.Fprintln(stderr, "bench: NOISY: too few reps ran without hypervisor steal; re-run this set, do not compare it")
	}
	line, err := json.Marshal(d.result)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !d.Correct || d.Failed > 0 {
		return 1
	}
	return 0
}

// measure sets the workload up, runs the timed queries and assembles the
// result.
func (b *bench) measure(nominal int) detail {
	d := detail{Workload: b.w.name, Side: b.side}
	r, setups := b.setUp()
	d.SetupS = setups
	var reps []sample
	if r != nil {
		step := func() (sample, bool) { return b.one(r, nil) }
		if b.o.trace {
			step = func() (sample, bool) { return b.tracedPair(r) }
		}
		reps = b.timedReps(step)
		if err := r.close(); err != nil {
			b.fail(fmt.Errorf("closing: %w", err))
		}
	}
	want := minReps
	if b.o.reps > 0 {
		want = b.o.reps
	}
	kept, noisy := acceptReps(reps, min(want, len(reps)))
	d.Reps, d.NoisyReps, d.Noisy = len(kept), noisy, noisy > 0
	for _, s := range kept {
		d.WallS = append(d.WallS, s.wall)
		d.CPUS = append(d.CPUS, s.cpu)
		d.Steal = append(d.Steal, s.steal)
		d.ProbeS = append(d.ProbeS, s.probe)
	}
	if b.o.trace {
		d.Metrics = b.layerMetrics(kept, noisy)
		if err := b.writeTrace(); err != nil {
			b.fail(err)
		}
	} else {
		d.Metrics, d.HostFactor = b.endToEndMetrics(nominal, kept, setups)
	}
	d.SHA = b.sha
	d.Attempted, d.Failed = int(b.attempted.Load()), int(b.failed.Load())
	d.Correct = d.Failed == 0 && b.sha != "" && len(kept) > 0
	return d
}

// setUp brings the workload to the point where the first timed query may be
// issued, setUps times over, and returns the last runner with every set-up
// time. A run reports the median, so that work moved into set-up shows.
func (b *bench) setUp() (runner, []float64) {
	var times []float64
	var r runner
	n := setUps
	if b.o.setups > 0 {
		n = b.o.setups
	}
	if b.o.trace {
		n = 1 // a traced run reports no setup_s; its time goes to traced queries
	}
	for i := 0; i < n; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				b.fail(fmt.Errorf("closing: %w", err))
			}
		}
		b.setupProbes = append(b.setupProbes, hostProbe())
		t0 := time.Now()
		r = newRunner(b.w, b.side, b.o.tmpDir)
		b.attempted.Add(1)
		s, err := r.warmUp()
		times = append(times, time.Since(t0).Seconds())
		if err == nil && i > 0 {
			err = b.check(s)
		}
		if err != nil {
			b.fail(fmt.Errorf("warm-up: %w", err))
			_ = r.close()
			return nil, times
		}
		b.sha, b.shuffle = s.sha, s.shuffle
	}
	return r, times
}

// check holds a query to the verified warm-up's output and shuffle volume.
func (b *bench) check(s sample) error {
	if s.sha != b.sha {
		return fmt.Errorf("output sha %s differs from the verified warm-up's %s", s.sha, b.sha)
	}
	if s.shuffle != b.shuffle {
		return fmt.Errorf("shuffle bytes %d differ from the warm-up's %d", s.shuffle, b.shuffle)
	}
	return nil
}

// one runs a single query and checks it; ok is false for a failed operation.
func (b *bench) one(r runner, rec *recorder) (sample, bool) {
	b.attempted.Add(1)
	probe := hostProbe()
	s, err := r.query(rec)
	s.probe = probe
	if err == nil {
		err = b.check(s)
	}
	if err != nil {
		b.fail(err)
		return s, false
	}
	return s, true
}

// timedReps runs the closed loop: one client, one query in flight, for
// -seconds (or exactly -reps queries). While fewer than minReps reps have
// run without steal the window stretches, up to half again its length.
func (b *bench) timedReps(step func() (sample, bool)) []sample {
	var reps []sample
	start := time.Now()
	window := time.Duration(b.o.seconds * float64(time.Second))
	done := func() bool {
		if b.o.reps > 0 {
			return len(reps) >= b.o.reps
		}
		quiet := 0
		for _, s := range reps {
			if s.steal <= stealLimit {
				quiet++
			}
		}
		elapsed := time.Since(start)
		return elapsed >= window+window/2 || elapsed >= window && quiet >= minReps
	}
	// A broken build fails every query; a few failures are evidence enough.
	for !done() && b.failed.Load() <= 3 {
		if s, ok := step(); ok {
			reps = append(reps, s)
		}
	}
	return reps
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json's order.
var endToEnd = []metricDef{
	{"query_wall_s", "s"},
	{"query_cpu_s", "s"},
	{"shuffle_bytes", "B"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

type metricDef struct{ name, unit string }

// endToEndMetrics reports medians over the accepted reps. The time metrics
// and shuffle bytes are scaled to the workload's nominal cell count: the seed
// widens the grid by up to six cells, and without the scaling the spread
// between seeds would be the grid's, not the program's. The time metrics are
// further multiplied by the host factor, also returned: the host probe's
// nominal time over its median reading during the run (before every set-up
// and every kept query; the host's states last minutes, a run seconds).
func (b *bench) endToEndMetrics(nominal int, kept []sample, setups []float64) (map[string]metric, float64) {
	scale := float64(nominal*nominal) / float64(b.side*b.side)
	var wall, cpu, shuffle []float64
	probes := append([]float64(nil), b.setupProbes...)
	for _, s := range kept {
		wall = append(wall, s.wall)
		cpu = append(cpu, s.cpu)
		shuffle = append(shuffle, float64(s.shuffle))
		probes = append(probes, s.probe)
	}
	host := hostFactor(probes)
	values := map[string]float64{
		"query_wall_s":  median(wall) * scale * host,
		"query_cpu_s":   median(cpu) * scale * host,
		"shuffle_bytes": median(shuffle) * scale,
		"peak_rss_mb":   peakRSSMB(),
		"setup_s":       median(setups) * scale * host,
	}
	return toMetrics(endToEnd, values), host
}

func toMetrics(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

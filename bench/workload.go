package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"scikey/internal/cluster"
	"scikey/internal/clusterd"
	"scikey/internal/core"
	"scikey/internal/hdfs"
	"scikey/internal/mapreduce"
	"scikey/internal/obs"
	"scikey/internal/queryd"
	"scikey/internal/scihadoop"
	"scikey/internal/store"
	"scikey/internal/workload"
)

// queryTimeout bounds every query, so a wedged engine is a failed operation
// and not a hung benchmark.
const queryTimeout = 60 * time.Second

// How a workload's queries reach the engine.
const (
	modeOneShot   = iota // BuildJob + mapreduce.Run in this goroutine, as scijob does
	modeCluster          // through an in-process coordinator and three workers
	modeServeCold        // POSTed to a fresh service, so every query misses
	modeServeWarm        // POSTed to one service whose cache was filled in set-up
)

// clusterWorkers is the worker count of the cluster3 workload.
const clusterWorkers = 3

// workloadDef is one row of the workload table.
type workloadDef struct {
	name string
	why  string
	mode int
	side int // nominal grid side, the one -seed 0 runs
	// spillPerCell sets Job.SpillBufferBytes to this many bytes per grid
	// cell. It scales io.sort.mb down with the grid, so a map task spills
	// about three times and the map-side merge pass runs, as at paper scale;
	// with the 16 MiB default no grid that fits the time budget spills twice.
	spillPerCell int
	shuffle      string // "" = in-memory hand-off
	spec         queryd.QuerySpec
}

// paperSpec is the job shape the paper uses everywhere: 10 splits, 5
// reducers, a 3x3 window, aggregation on the Z-order curve.
func paperSpec(strategy, op string) queryd.QuerySpec {
	s := queryd.QuerySpec{Strategy: strategy, Op: op, Radius: 1, Splits: 10, Reducers: 5}
	switch strategy {
	case "transform":
		s.Codec = "zlib"
	case "aggregation":
		s.Curve = "zorder"
	}
	return s
}

var workloads = []workloadDef{
	{
		name: "oneshot-baseline", mode: modeOneShot, side: 128, spillPerCell: 8,
		spec: paperSpec("baseline", "median"),
		why:  "simple keys, no codec: sort, spill, ifile, merge and reduce do all the work; bypass for predictor, codec and aggregate",
	},
	{
		name: "oneshot-transform", mode: modeOneShot, side: 128, spillPerCell: 8,
		spec: paperSpec("transform", "median"),
		why:  "Section III: predictor and zlib dominate both sides, so E6 is restated in measured seconds against oneshot-baseline",
	},
	{
		name: "oneshot-agg", mode: modeOneShot, side: 128, spillPerCell: 8,
		spec: paperSpec("aggregation", "median"),
		why:  "Section IV: aggregate, sfc and keys in the map function are the query; bypass for sort, spill and codec work (E8)",
	},
	{
		name: "max-combine-tcp", mode: modeOneShot, side: 256, spillPerCell: 2, shuffle: mapreduce.ShuffleTCP,
		spec: func() queryd.QuerySpec {
			s := paperSpec("aggregation", "max")
			s.Combine = true
			return s
		}(),
		why: "distributive op: the only workload running in-node combining and the shufflenet TCP fetch path, at a second grid size",
	},
	{
		name: "cluster3", mode: modeCluster, side: 128, spillPerCell: 8,
		spec: paperSpec("baseline", "median"),
		why:  "control plane and today's data plane: segments as base64 JSON over the control connection plus an fsynced journal",
	},
	{
		name: "serve-cold", mode: modeServeCold, side: 128,
		spec: paperSpec("baseline", "median"),
		why:  "service write side: per-request Setup, full job, snapshot encode and store.Put, output sha, cost-model re-Fit",
	},
	{
		name: "serve-warm", mode: modeServeWarm, side: 128,
		spec: paperSpec("baseline", "median"),
		why:  "service read side: store.Get and snapshot decode, zero map attempts, reduce only; pairs with serve-cold",
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// seedSide turns the seed into the grid side. The dataset is a pure function
// of the side, so this is the one lever that changes the input everywhere:
// the row stride the predictor must find and every split and cluster
// boundary move with it. Offsets stay at or above the nominal side so the
// Z-order cube, and with it the range partitioner's balance, never changes,
// and within three cells of it so that shuffle_bytes per cell, which on the
// aggregate-key workloads depends on where the grid's edges fall on the
// curve, stays inside its bound whatever seeds a set of runs draws.
func seedSide(nominal int, seed int64) int {
	if seed <= 0 {
		return nominal
	}
	return nominal + int(seed%4)
}

// sample is one query as the harness saw it.
type sample struct {
	wall, cpu, steal float64
	probe            float64 // what hostProbe read just before the query
	sha              string
	shuffle          int64   // ReduceShuffleBytes
	modeled          float64 // the cost model's seconds for the same job
	http             bool    // the query went through the service's HTTP front
	// layers and rec are set on traced queries: the per-layer metrics read
	// off this query, and the recorder whose spans produced them.
	layers map[string]float64
	rec    *recorder
}

// runner runs one workload's queries. query(nil) is the untraced form.
type runner interface {
	// warmUp runs the verified warm-up query (and whatever else a first
	// timed query needs to find in place); every later query must reproduce
	// its output sha and shuffle bytes.
	warmUp() (sample, error)
	query(rec *recorder) (sample, error)
	close() error
}

func newRunner(w workloadDef, side int, tmpDir string) runner {
	spec := w.spec
	spec.Side = side
	base := engine{w: w, spec: spec, spill: w.spillPerCell * side * side}
	switch w.mode {
	case modeCluster:
		return &clusterRunner{engine: base, tmpDir: tmpDir}
	case modeServeCold, modeServeWarm:
		return &serveRunner{engine: base, client: &http.Client{Timeout: queryTimeout}}
	}
	return &oneShotRunner{base}
}

// engine is what every mode shares: building the job the way cmd/scijob
// does and running it in this process.
type engine struct {
	w     workloadDef
	spec  queryd.QuerySpec
	spill int
}

// build sets the spec up and builds its job, instrumented when rec is set.
func (e *engine) build(rec *recorder, adjust func(*scihadoop.QueryConfig)) (*hdfs.FileSystem, *core.JobPlan, error) {
	t0 := time.Now()
	fs, qcfg, strat, err := e.spec.Setup()
	if err != nil {
		return nil, nil, err
	}
	if rec != nil {
		rec.datasetSetup.Add(int64(time.Since(t0)))
		qcfg.Obs = rec.obs
	}
	qcfg.Timeout = queryTimeout
	if e.w.shuffle != "" {
		qcfg.Shuffle = &mapreduce.ShuffleConfig{Mode: e.w.shuffle}
	}
	if adjust != nil {
		adjust(&qcfg)
	}
	plan, err := core.BuildJob(fs, qcfg, strat)
	if err != nil {
		return nil, nil, err
	}
	plan.Job.SpillBufferBytes = e.spill
	if rec != nil {
		rec.instrument(plan.Job)
	}
	return fs, plan, nil
}

// run executes one query in this process. With verify set, the decoded
// output is compared cell by cell with the brute-force reference — what
// scijob -verify does — outside the timed region.
func (e *engine) run(rec *recorder, verify bool, adjust func(*scihadoop.QueryConfig)) (sample, error) {
	var s sample
	watch := startWatch()
	fs, plan, err := e.build(rec, adjust)
	if err != nil {
		return s, err
	}
	res, err := mapreduce.Run(plan.Job)
	if err != nil {
		return s, err
	}
	t0 := time.Now()
	s.sha, err = queryd.OutputSHA(fs, res)
	if err != nil {
		return s, err
	}
	shaSeconds := time.Since(t0).Seconds()
	s.wall, s.cpu, s.steal = watch.stop()
	s.shuffle = res.Counters.ReduceShuffleBytes.Value()
	s.modeled = res.Estimate(cluster.Paper()).Total()
	if rec != nil {
		s.layers, s.rec = rec.ledger(s, e.spec.Combine), rec
		s.layers["queryd.output_sha_s"] = shaSeconds
	}
	if verify {
		got, err := plan.Decode(res)
		if err != nil {
			return s, fmt.Errorf("decoding output: %w", err)
		}
		if err := checkAgainstReference(e.spec, got); err != nil {
			return s, err
		}
	}
	return s, nil
}

// checkAgainstReference compares every output cell with the reference
// implementation's.
func checkAgainstReference(spec queryd.QuerySpec, got scihadoop.CellResults) error {
	_, qcfg, _, err := spec.Setup()
	if err != nil {
		return err
	}
	field := &workload.Field{Extent: qcfg.DS.Extent, Name: qcfg.DS.Var.Name}
	want := scihadoop.Reference(field, qcfg.DS.Extent, qcfg.Radius, qcfg.Op)
	bad := 0
	for k, v := range want {
		if got[k] != v {
			bad++
		}
	}
	if bad > 0 || len(got) != len(want) {
		return fmt.Errorf("output differs from the reference: %d of %d cells wrong, %d of %d present",
			bad, len(want), len(got), len(want))
	}
	return nil
}

type oneShotRunner struct{ engine }

func (r *oneShotRunner) warmUp() (sample, error) { return r.run(nil, true, nil) }

func (r *oneShotRunner) query(rec *recorder) (sample, error) { return r.run(rec, false, nil) }

func (r *oneShotRunner) close() error { return nil }

// clusterRunner runs each query on a fresh in-process cluster: a journaled
// coordinator on a loopback port, three workers whose Build mirrors
// cmd/scijob's worker mode, and a dialed client as the job's Remote. The
// coordinator memoises attempt outcomes, so a cluster serves one query; it
// is booted and torn down outside the timed region.
type clusterRunner struct {
	engine
	tmpDir string
}

// liveCluster is one booted cluster.
type liveCluster struct {
	dir     string
	obs     *obs.Observer
	coord   *clusterd.Coordinator
	client  *clusterd.Client
	workers []*clusterd.Worker
	exited  []chan error
	bootS   float64
}

func (r *clusterRunner) boot(rec *recorder) (*liveCluster, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(r.tmpDir, "coord-")
	if err != nil {
		return nil, err
	}
	c := &liveCluster{dir: dir, obs: obs.New()}
	specJSON, err := json.Marshal(r.spec)
	if err != nil {
		return c, err
	}
	c.coord, err = clusterd.Start(clusterd.Config{
		Addr:     "127.0.0.1:0",
		Spec:     specJSON,
		Journal:  filepath.Join(dir, "coord.journal"),
		LeaseTTL: 2 * time.Second, // what scijob gives a journaled coordinator
		Obs:      c.obs,
	})
	if err != nil {
		return c, err
	}
	var built sync.WaitGroup
	built.Add(clusterWorkers)
	for i := 0; i < clusterWorkers; i++ {
		var once sync.Once
		w := clusterd.NewWorker(clusterd.WorkerConfig{
			Addr: c.coord.Addr(),
			Build: func(raw []byte) (clusterd.Runner, error) {
				defer once.Do(built.Done)
				e := r.engine
				if err := json.Unmarshal(raw, &e.spec); err != nil {
					return nil, fmt.Errorf("decoding job spec: %w", err)
				}
				_, plan, err := e.build(nil, nil)
				if err != nil {
					return nil, err
				}
				if rec != nil {
					// Worker attempts get the decorators but no Observer:
					// RunMapAttempt and RunReduceAttempt record no spans, and
					// the driver's job owns the trace.
					rec.instrument(plan.Job)
				}
				return &clusterd.JobRunner{Job: plan.Job}, nil
			},
		})
		done := make(chan error, 1)
		go func() { done <- w.Run() }()
		c.workers = append(c.workers, w)
		c.exited = append(c.exited, done)
	}
	c.client, err = clusterd.Dial(clusterd.ClientConfig{Addr: c.coord.Addr()})
	if err != nil {
		return c, err
	}
	// Timing starts once every worker is registered and has built its job.
	ready := make(chan struct{})
	go func() { built.Wait(); close(ready) }()
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		return c, errors.New("cluster workers did not come up within 10s")
	}
	if n := registryValues(c.obs.R())["scikey_cluster_workers"]; n != clusterWorkers {
		return c, fmt.Errorf("coordinator reports %d workers, want %d", n, clusterWorkers)
	}
	c.bootS = time.Since(t0).Seconds()
	return c, nil
}

// shutdown tears the cluster down in dependency order and reports anything
// left behind as an error: client, then every worker (waiting for its Run to
// return), then the coordinator, then the journal directory.
func (c *liveCluster) shutdown() error {
	var errs []error
	if c.client != nil {
		errs = append(errs, c.client.Close())
	}
	for i, w := range c.workers {
		w.Stop()
		select {
		case err := <-c.exited[i]:
			errs = append(errs, err)
		case <-time.After(5 * time.Second):
			errs = append(errs, fmt.Errorf("worker %d did not stop within 5s", i))
		}
	}
	if c.coord != nil {
		errs = append(errs, c.coord.Close())
	}
	errs = append(errs, os.RemoveAll(c.dir))
	return errors.Join(errs...)
}

func (r *clusterRunner) runOnce(rec *recorder, verify bool) (sample, error) {
	c, err := r.boot(rec)
	if err != nil {
		if c != nil {
			err = errors.Join(err, c.shutdown())
		}
		return sample{}, err
	}
	s, err := r.run(rec, verify, func(q *scihadoop.QueryConfig) {
		q.Remote = c.client
		q.Parallelism = 2 * clusterWorkers // what scijob -cluster defaults to
	})
	if rec != nil && err == nil {
		v := registryValues(c.obs.R())
		s.layers["clusterd.boot_s"] = c.bootS
		s.layers["clusterd.journal_bytes"] = float64(v["scikey_coord_journal_bytes_total"])
		s.layers["clusterd.journal_events"] = float64(v["scikey_coord_journal_events_total"])
		s.layers["clusterd.lease_expired"] = float64(v["scikey_cluster_lease_transitions_total/expired"])
		if s.shuffle > 0 {
			s.layers["clusterd.journal_bytes_per_shuffle_byte"] = float64(v["scikey_coord_journal_bytes_total"]) / float64(s.shuffle)
		}
	}
	return s, errors.Join(err, c.shutdown())
}

func (r *clusterRunner) warmUp() (sample, error) { return r.runOnce(nil, true) }

func (r *clusterRunner) query(rec *recorder) (sample, error) { return r.runOnce(rec, false) }

func (r *clusterRunner) close() error { return nil }

// serveRunner POSTs the spec to an in-process query service wired as
// scijob -serve wires it: a Local store over its own HDFS instance.
type serveRunner struct {
	engine
	client *http.Client
	// warm and warmTraced are serve-warm's two long-lived services, each
	// filled by one cold query; the traced one exists only in traced runs.
	warm, warmTraced *liveService
}

type liveService struct {
	srv    *queryd.Server
	rec    *recorder // non-nil on a traced service
	filled bool      // the cache already holds the query
}

func (r *serveRunner) start(rec *recorder) (*liveService, error) {
	// A dedicated HDFS instance, as in cmd/scijob: cache blobs live in their
	// own namespace.
	var st store.Store = store.NewLocal(hdfs.New(256<<20, 3, []string{"cache0", "cache1", "cache2"}), "/store")
	cfg := queryd.Config{Store: st}
	if rec != nil {
		cfg.Store = &timedStore{Store: st, rec: rec}
		cfg.Obs = rec.obs
	}
	srv, err := queryd.NewServer("127.0.0.1:0", queryd.New(cfg))
	if err != nil {
		return nil, err
	}
	return &liveService{srv: srv, rec: rec}, nil
}

// post sends one query and times the round trip.
func (r *serveRunner) post(svc *liveService) (sample, error) {
	s := sample{http: true}
	body, err := json.Marshal(r.spec)
	if err != nil {
		return s, err
	}
	if svc.rec != nil {
		svc.rec.begin()
	}
	watch := startWatch()
	resp, err := r.client.Post("http://"+svc.srv.Addr()+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return s, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.wall, s.cpu, s.steal = watch.stop()
	if err != nil {
		return s, err
	}
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("service returned %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var qr queryd.Response
	if err := json.Unmarshal(data, &qr); err != nil {
		return s, fmt.Errorf("decoding response: %w", err)
	}
	if qr.CacheHit != svc.filled {
		return s, fmt.Errorf("cache hit = %v on a service whose cache filled = %v", qr.CacheHit, svc.filled)
	}
	s.sha = qr.OutputSHA
	s.shuffle = qr.Report.ShuffleBytes
	s.modeled = qr.Report.Estimate.Total()
	if svc.rec != nil {
		s.layers, s.rec = svc.rec.ledger(s, r.spec.Combine), svc.rec
		// The service sets the spec up on every request; time the same call
		// here, outside the round trip, to say how much of it that is.
		t0 := time.Now()
		if _, _, _, err := r.spec.Setup(); err != nil {
			return s, err
		}
		s.layers["scihadoop.dataset_setup_s"] = time.Since(t0).Seconds()
	}
	return s, nil
}

func (r *serveRunner) warmUp() (sample, error) {
	// The service returns a digest, not cells, so the oracle is a verified
	// one-shot run of the same spec; every response must carry its sha.
	ref, err := r.run(nil, true, nil)
	if err != nil {
		return ref, err
	}
	svc, err := r.start(nil)
	if err != nil {
		return ref, err
	}
	s, err := r.post(svc)
	if err == nil && s.sha != ref.sha {
		err = fmt.Errorf("service output sha %s differs from the verified one-shot run's %s", s.sha, ref.sha)
	}
	if err != nil || r.w.mode == modeServeCold {
		svc.srv.Close()
		return ref, err
	}
	svc.filled = true
	r.warm = svc
	return ref, nil
}

func (r *serveRunner) query(rec *recorder) (sample, error) {
	if r.w.mode == modeServeWarm {
		svc := r.warm
		if rec != nil {
			if r.warmTraced == nil {
				fresh, err := r.start(rec)
				if err != nil {
					return sample{}, err
				}
				if _, err := r.post(fresh); err != nil { // the cold fill
					fresh.srv.Close()
					return sample{}, err
				}
				fresh.filled = true
				r.warmTraced = fresh
			}
			svc = r.warmTraced
		}
		return r.post(svc)
	}
	svc, err := r.start(rec)
	if err != nil {
		return sample{}, err
	}
	defer svc.srv.Close()
	return r.post(svc)
}

func (r *serveRunner) close() error {
	for _, svc := range []*liveService{r.warm, r.warmTraced} {
		if svc != nil {
			svc.srv.Close()
		}
	}
	r.client.CloseIdleConnections()
	return nil
}

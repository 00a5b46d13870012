package queryd

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"scikey/internal/cluster"
	"scikey/internal/core"
	"scikey/internal/hdfs"
	"scikey/internal/mapreduce"
	"scikey/internal/obs"
	"scikey/internal/store"
)

// QuotaError is the typed admission rejection: the tenant's remaining quota
// cannot absorb the query's predicted cost. It is returned immediately at
// Submit — a rejected query never occupies a queue slot.
type QuotaError struct {
	Tenant           string
	PredictedSeconds float64
	RemainingSeconds float64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("queryd: tenant %q over quota: predicted cost %.2fs exceeds remaining quota %.2fs",
		e.Tenant, e.PredictedSeconds, e.RemainingSeconds)
}

// QueueFullError is the typed backpressure rejection: the bounded job queue
// has no free slot. Submit fails fast instead of blocking the caller.
type QueueFullError struct {
	Depth int
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("queryd: job queue full (depth %d)", e.Depth)
}

// ErrClosed reports a Submit after Close.
var errClosed = fmt.Errorf("queryd: service is closed")

// Config parameterizes a Service.
type Config struct {
	// Store backs the shared segment cache. Nil disables caching.
	Store store.Store
	// Obs records service metrics (scikey_cache_*, scikey_tenant_*) and the
	// executed jobs' traces. Nil disables observability.
	Obs *obs.Observer
	// QueueDepth bounds queued-but-not-executing queries (default 16).
	QueueDepth int
	// Workers is the executor goroutine count (default 2).
	Workers int
	// DefaultQuotaSeconds is each tenant's modeled-seconds budget when not
	// listed in Quotas (0 means unlimited).
	DefaultQuotaSeconds float64
	// Quotas overrides per-tenant budgets in modeled seconds.
	Quotas map[string]float64
}

// Response reports one completed query.
type Response struct {
	// Report is the full strategy report (output cells omitted).
	Report *core.Report `json:"report"`
	// OutputSHA is the hex sha256 over the job's output files in partition
	// order — the byte-identity handle differential tests compare.
	OutputSHA string `json:"output_sha"`
	// CacheHit reports that the map phase was restored from the segment
	// cache rather than executed.
	CacheHit bool `json:"cache_hit"`
	// PredictedSeconds is the admission-time cost estimate; ChargedSeconds
	// is the observed modeled cost debited from the tenant's quota.
	PredictedSeconds float64 `json:"predicted_seconds"`
	ChargedSeconds   float64 `json:"charged_seconds"`
	// Tenant echoes the accounting tenant ("default" when unset).
	Tenant string `json:"tenant"`
}

// tenantState tracks one tenant's quota spend.
type tenantState struct {
	quota float64 // modeled seconds; <= 0 means unlimited
	spent float64

	submitted obs.Counter
	rejected  obs.Counter
	completed obs.Counter
	failed    obs.Counter
	costMS    obs.Counter
}

// Service is the resident query daemon: admission control in Submit, a
// bounded queue feeding executor goroutines, and a shared segment cache
// that lets identical queries skip the map phase.
type Service struct {
	cfg   Config
	cache *SegmentCache
	queue chan *request
	wg    sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	tenants map[string]*tenantState
	// clus prices admission: cluster.Paper() to start, its bandwidths re-fit
	// from completed runs' calibration samples as evidence accumulates in
	// cal, which keeps their sums rather than the samples.
	clus cluster.Config
	cal  cluster.Calibration
	// costByKey remembers the observed modeled cost of completed cache
	// keys: the best admission predictor for a repeated query is the last
	// identical run.
	costByKey map[string]float64
	// flights serializes executions per cache key (singleflight): two
	// identical queries racing on a cold key run exactly one map phase —
	// the second waits, then hits the cache the first just filled. An entry
	// lives while some query of its key holds or waits for it.
	flights map[string]*flight

	// holdExec, when non-nil (tests only), gates executors: each calls it
	// with a request in hand before running it, so a test can learn that
	// the request left the queue and park the executor there.
	holdExec func()
}

// request is one admitted query waiting for an executor.
type request struct {
	spec QuerySpec
	done chan result
}

type result struct {
	resp *Response
	err  error
}

// New starts a Service.
func New(cfg Config) *Service {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	s := &Service{
		cfg:       cfg,
		queue:     make(chan *request, cfg.QueueDepth),
		tenants:   make(map[string]*tenantState),
		clus:      cluster.Paper(),
		costByKey: make(map[string]float64),
		flights:   make(map[string]*flight),
	}
	if cfg.Store != nil {
		s.cache = NewSegmentCache(cfg.Store, cfg.Obs.R())
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s
}

// Close drains the queue and stops the executors. Queued requests still
// complete; new Submits fail.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
}

// tenant returns (creating if needed) the named tenant's state. Callers
// hold s.mu.
func (s *Service) tenant(name string) *tenantState {
	if name == "" {
		name = "default"
	}
	t, ok := s.tenants[name]
	if !ok {
		quota := s.cfg.DefaultQuotaSeconds
		if q, ok := s.cfg.Quotas[name]; ok {
			quota = q
		}
		reg := s.cfg.Obs.R()
		lbl := obs.L("tenant", name)
		t = &tenantState{
			quota:     quota,
			submitted: reg.Counter("scikey_tenant_submitted_total", "Queries submitted per tenant", "", lbl),
			rejected:  reg.Counter("scikey_tenant_rejected_total", "Queries rejected at admission per tenant (quota or queue)", "", lbl),
			completed: reg.Counter("scikey_tenant_completed_total", "Queries completed per tenant", "", lbl),
			failed:    reg.Counter("scikey_tenant_failed_total", "Queries failed during execution per tenant", "", lbl),
			costMS:    reg.Counter("scikey_tenant_cost_ms_total", "Modeled cost charged per tenant, in milliseconds", "ms", lbl),
		}
		s.tenants[name] = t
	}
	return t
}

// predictCost estimates a spec's modeled cost in seconds, for admission.
// A completed identical query (same cache key) is the best predictor; for
// unseen keys the cost model prices the dataset's byte volume — every map
// task scans its slice of side²·4 input bytes, and the reduce side moves a
// window-multiplied volume — a deliberately coarse prior that re-fit
// bandwidths sharpen over time.
func (s *Service) predictCost(spec QuerySpec) float64 {
	key := spec.CacheKey()
	s.mu.Lock()
	clus := s.clus
	known, ok := s.costByKey[key]
	s.mu.Unlock()
	if ok && key != "" {
		return known
	}
	inputBytes := int64(spec.Side) * int64(spec.Side) * 4
	qcfg, _, _ := spec.queryConfig() // Submit validated the spec
	qcfg = qcfg.WithDefaults()
	splits, reducers := qcfg.NumSplits, qcfg.NumReducers
	window := int64(2*qcfg.Radius+1) * int64(2*qcfg.Radius+1)
	maps := make([]cluster.Task, splits)
	for i := range maps {
		per := inputBytes / int64(splits)
		maps[i] = cluster.Task{DiskBytes: per * (1 + window), NetBytes: 0}
	}
	reds := make([]cluster.Task, reducers)
	for i := range reds {
		per := inputBytes * window / int64(reducers)
		reds[i] = cluster.Task{DiskBytes: per, NetBytes: per}
	}
	return clus.EstimateJob(maps, reds).Total()
}

// The service's bounds on one spec, checked before anything is allocated
// for it: Setup generates side² cells, and predictCost sizes one slice per
// split and per reducer. They keep a spec from panicking or overflowing
// those sizes; they do not bound a query's memory, which at side 8192 is
// gigabytes (256 MiB of input, and baseline's 225 shuffle bytes per cell
// at side 128 would be 15 GB). Only a tenant quota prices such a query out.
// One-shot scijob is not held to them.
const (
	maxSide  = 8192
	maxTasks = 4096
)

// admissible reports why the service refuses spec outright, or nil. Such a
// spec counts against no tenant.
func admissible(spec QuerySpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	switch {
	case spec.Faults != "":
		return fmt.Errorf("queryd: fault injection is not accepted by the resident service; run faulty jobs one-shot")
	case spec.Side > maxSide:
		return fmt.Errorf("queryd: side %d exceeds the service's limit of %d", spec.Side, maxSide)
	case spec.Radius >= spec.Side:
		return fmt.Errorf("queryd: radius %d must be smaller than side %d", spec.Radius, spec.Side)
	case spec.Splits > maxTasks || spec.Reducers > maxTasks:
		return fmt.Errorf("queryd: splits %d, reducers %d: the service's limit is %d tasks per phase",
			spec.Splits, spec.Reducers, maxTasks)
	}
	return nil
}

// Submit validates, admits, enqueues, and waits for one query. Rejections
// are typed: *QuotaError when predicted cost exceeds the tenant's remaining
// quota, *QueueFullError when the bounded queue is full. Both return
// immediately — a rejected or failed query never stalls the caller.
func (s *Service) Submit(spec QuerySpec) (*Response, error) {
	if err := admissible(spec); err != nil {
		return nil, err
	}
	predicted := s.predictCost(spec)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errClosed
	}
	t := s.tenant(spec.Tenant)
	t.submitted.Add(1)
	if t.quota > 0 {
		remaining := t.quota - t.spent
		if predicted > remaining {
			t.rejected.Add(1)
			s.mu.Unlock()
			return nil, &QuotaError{
				Tenant:           tenantName(spec.Tenant),
				PredictedSeconds: predicted,
				RemainingSeconds: remaining,
			}
		}
	}
	s.mu.Unlock()

	req := &request{spec: spec, done: make(chan result, 1)}
	select {
	case s.queue <- req:
	default:
		s.mu.Lock()
		t.rejected.Add(1)
		s.mu.Unlock()
		return nil, &QueueFullError{Depth: s.cfg.QueueDepth}
	}
	r := <-req.done
	if r.resp != nil {
		r.resp.PredictedSeconds = predicted
	}
	return r.resp, r.err
}

func tenantName(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

// executor drains the queue until Close.
func (s *Service) executor() {
	defer s.wg.Done()
	for req := range s.queue {
		if s.holdExec != nil {
			s.holdExec()
		}
		resp, err := s.run(req.spec)
		req.done <- result{resp: resp, err: err}
	}
}

// flight is one cache key's singleflight lock. refs, guarded by Service.mu,
// counts the queries holding or waiting for mu.
type flight struct {
	mu   sync.Mutex
	refs int
}

// lockFlight takes the singleflight lock for a cache key and returns its
// unlock, which drops the key's entry once no other query holds or waits
// for it.
func (s *Service) lockFlight(key string) (unlock func()) {
	s.mu.Lock()
	f, ok := s.flights[key]
	if !ok {
		f = &flight{}
		s.flights[key] = f
	}
	f.refs++
	s.mu.Unlock()
	f.mu.Lock()
	return func() {
		f.mu.Unlock()
		s.mu.Lock()
		if f.refs--; f.refs == 0 {
			delete(s.flights, key)
		}
		s.mu.Unlock()
	}
}

// run executes one admitted query. Identical queries serialize per cache
// key, so of racers over a cold (or corrupt) key exactly one runs the map
// phase and the rest restore its segments; different keys run concurrently
// up to the worker count.
func (s *Service) run(spec QuerySpec) (*Response, error) {
	key := spec.CacheKey()
	if s.cache != nil && key != "" {
		defer s.lockFlight(key)()
	}
	return s.execute(spec, key)
}

// execute builds and runs the job, hashes its output, and settles quota
// accounting.
func (s *Service) execute(spec QuerySpec, key string) (*Response, error) {
	fs, qcfg, strat, err := spec.Setup()
	if err != nil {
		return nil, err
	}
	qcfg.Obs = s.cfg.Obs
	// A query's attempts run on every core. The engine's process-wide CPU
	// pool bounds compute across all executors to GOMAXPROCS, and an
	// attempt that finds no spare core spills in place with one buffer set,
	// so side-by-side attempts cost little more memory than sequential ones.
	qcfg.Parallelism = runtime.GOMAXPROCS(0)
	if s.cache != nil && key != "" {
		qcfg.MapCache = s.cache
		qcfg.CacheKey = key
	}
	s.mu.Lock()
	clus := s.clus
	t := s.tenant(spec.Tenant)
	s.mu.Unlock()

	rep, res, err := core.RunQueryResult(fs, qcfg, strat, clus, false)
	if err != nil {
		s.mu.Lock()
		t.failed.Add(1)
		s.mu.Unlock()
		return nil, err
	}
	sha, err := OutputSHA(fs, res)
	if err != nil {
		return nil, err
	}

	charged := rep.Estimate.Total()
	s.mu.Lock()
	t.spent += charged
	t.completed.Add(1)
	t.costMS.Add(int64(charged * 1000))
	if key != "" {
		s.costByKey[key] = charged
	}
	// Recalibrate the cost model as real samples accumulate; Fit errors
	// (all-CPU runs with no I/O residual) keep the current model.
	s.cal.Add(res.CalSamples...)
	if fitted, err := s.cal.Fit(s.clus); err == nil {
		s.clus = fitted
	}
	s.mu.Unlock()

	return &Response{
		Report:    rep,
		OutputSHA: sha,
		CacheHit:  rep.MapPhaseCached,
		// PredictedSeconds is stamped by Submit.
		ChargedSeconds: charged,
		Tenant:         tenantName(spec.Tenant),
	}, nil
}

// TenantSpent reports a tenant's accumulated modeled-seconds charge.
func (s *Service) TenantSpent(tenant string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[tenantName(tenant)]; ok {
		return t.spent
	}
	return 0
}

// OutputSHA hashes a result's output files — partition order, contents
// only — into the byte-identity handle one-shot runs print and service
// responses carry. Each file streams through the hash; none is copied out.
func OutputSHA(fs *hdfs.FileSystem, res *mapreduce.Result) (string, error) {
	h := sha256.New()
	paths := append([]string(nil), res.OutputPaths...)
	sort.Strings(paths)
	for _, p := range paths {
		if err := hashFile(h, fs, p); err != nil {
			return "", fmt.Errorf("queryd: hashing output %s: %w", p, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashFile streams path's contents into h.
func hashFile(h io.Writer, fs *hdfs.FileSystem, path string) error {
	r, err := fs.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	_, err = io.Copy(h, r)
	return err
}

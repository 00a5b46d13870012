package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"scikey/internal/cluster"
	"scikey/internal/obs"
	"scikey/internal/shufflenet"
)

// Result reports a completed job: its counters, the per-task resource
// footprints for the cluster cost model, and the output file paths.
type Result struct {
	Counters *Counters
	MapTasks []cluster.Task
	// MapSpecs pairs each map task with its input volume and block hosts
	// for locality-aware estimation.
	MapSpecs    []cluster.MapSpec
	ReduceTasks []cluster.Task
	OutputPaths []string
	// MapPhaseCached reports that the map (and combine) phase was skipped:
	// the published segments came from Job.MapCache, and zero map attempts
	// ran. A run whose reducers found restored output corrupt or lost ran
	// its map phase after all and reports false. Output bytes and payload
	// counters are identical either way.
	MapPhaseCached bool
	// WastedMapTasks / WastedReduceTasks are the footprints of attempts
	// whose work was discarded: failures, corruption-replaced map attempts,
	// and speculative losers. The cost model schedules them alongside the
	// committed tasks so recovery overhead shows up in the estimate.
	WastedMapTasks    []cluster.Task
	WastedReduceTasks []cluster.Task
	// CalSamples pairs each winning attempt's modeled footprint with its
	// observed wall clock, for cluster.Config.Fit.
	CalSamples []cluster.CalSample
}

// Estimate models the job's runtime on the given cluster, treating all map
// input as node-local. Discarded attempts are charged as wasted slot time.
func (r *Result) Estimate(cfg cluster.Config) cluster.JobEstimate {
	return cfg.EstimateJobWithWaste(r.MapTasks, r.ReduceTasks, r.WastedMapTasks, r.WastedReduceTasks)
}

// EstimateLocality models the runtime with Hadoop's locality-preferring
// map scheduling over the named nodes.
func (r *Result) EstimateLocality(cfg cluster.Config, nodes []string) cluster.LocalityEstimate {
	return cfg.EstimateJobLocality(nodes, r.MapSpecs, r.ReduceTasks)
}

// Run executes the job to completion under the job's RetryPolicy: each task
// runs as a sequence of attempts, failures retry within the budget (with
// deterministic backoff), stragglers may be speculatively re-executed, and
// corrupt shuffle segments trigger re-execution of the producing map task.
// Only winning attempts contribute output, counters, and footprints; every
// discarded attempt's work is recorded as waste.
func Run(job *Job) (*Result, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	r, err := newJobRun(job)
	if err != nil {
		return nil, err
	}
	defer r.close()
	for _, step := range []func() error{r.mapPhase, r.combinePhase, r.reducePhase} {
		if err := step(); err != nil {
			return nil, err
		}
		if err := context.Cause(r.ctx); err != nil {
			return nil, err
		}
	}
	return r.assemble()
}

// publishedRows is the one table of map output visible to reducers:
// rows[mapTask] is the task's published per-partition segments (the
// post-combine view when the job combines in-node), attempts[mapTask] the
// attempt they were published under. install is the only way a row becomes
// visible — whether it came from a map commit, a recovery re-run, a node
// group's combine, or a cache restore — and it also pushes the row to the
// shuffle service and the remote segment table when the job has either, so
// reduce attempts always fetch the freshest committed output.
type publishedRows struct {
	svc    *shufflenet.Service // nil for the in-memory shuffle
	remote Remote              // nil for in-process execution

	mu       sync.Mutex
	rows     [][]segment
	attempts []int // -1 until the task's first install
}

func newPublishedRows(nMaps int, svc *shufflenet.Service, remote Remote) *publishedRows {
	p := &publishedRows{svc: svc, remote: remote, rows: make([][]segment, nMaps), attempts: make([]int, nMaps)}
	for m := range p.attempts {
		p.attempts[m] = -1
	}
	return p
}

func (p *publishedRows) install(task, attempt int, row []segment) {
	p.mu.Lock()
	p.rows[task], p.attempts[task] = row, attempt
	p.mu.Unlock()
	if p.svc == nil && p.remote == nil {
		return
	}
	parts := make([][]byte, len(row))
	for i := range row {
		parts[i] = row[i].data
	}
	if p.svc != nil {
		p.svc.Publish(task, attempt, parts)
	}
	if p.remote != nil {
		p.remote.PublishRemote(task, attempt, parts)
	}
}

// snapshot copies the rows under the lock — a concurrent repair may be
// swapping a recovered task's row in — for a reduce attempt's in-memory
// fetches.
func (p *publishedRows) snapshot() [][]segment {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([][]segment(nil), p.rows...)
}

// attemptOf names the attempt a map task's row is published under, for
// exhausted-fetch reports (the fetcher never saw the lost bytes'
// provenance).
func (p *publishedRows) attemptOf(m int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.attempts[m]
}

// jobRun is one Run call's state: the job-wide cancel signal, the
// published-rows table, the combine buffer, the winning attempts, and the
// waste ledger, shared by the phase steps Run dispatches.
type jobRun struct {
	job     *Job
	jc      *Counters // scheduling counters during the run; payload counters merge in at assemble
	span    obs.Span  // roots the trace; nil-safe no-op without an Observer
	outcome string

	// ctx is the job-wide cancel signal, bounded by Job.Timeout (whose
	// expiry cancels it with a *TimeoutError as the cause). Each phase
	// derives its own from it, and from there it reaches in-flight attempts,
	// backoff sleeps and shuffle fetches.
	ctx    context.Context
	cancel context.CancelFunc

	// svc is nil for the in-memory shuffle; otherwise the per-node shuffle
	// servers are live for the whole run.
	svc *shufflenet.Service
	pub *publishedRows
	// cached, when non-nil, is a restored map phase: each map task was
	// committed from the snapshot as a remote attempt commits, and the map
	// and combine phases are skipped. dropRestore clears it.
	cached *MapPhaseSnapshot
	// nb is the in-node combine buffer (nil when the job doesn't combine).
	// With it, committed map output is fed here instead of installed raw;
	// the combine phase installs each group's combined view. A restored run
	// starts it with the snapshot's combine accounting.
	nb *NodeBuffer

	mapRunner *phaseRunner
	// repairMu serializes map re-execution and recombining: two reducers
	// hitting the same bad segment repair it once.
	repairMu sync.Mutex

	mu            sync.Mutex // guards the fields below
	tasks         []*mapTask // winning map attempts
	rtasks        []*reduceTask
	wastedMaps    []cluster.Task
	wastedReduces []cluster.Task
}

func newJobRun(job *Job) (*jobRun, error) {
	name := job.Name
	if name == "" {
		name = "job"
	}
	r := &jobRun{
		job:     job,
		jc:      &Counters{},
		span:    job.Obs.T().Start(obs.CatJob, name, 0, -1, -1),
		outcome: "failed",
		tasks:   make([]*mapTask, len(job.Splits)),
		rtasks:  make([]*reduceTask, job.NumReducers),
	}
	if job.Timeout > 0 {
		r.ctx, r.cancel = context.WithTimeoutCause(context.Background(), job.Timeout, &TimeoutError{Timeout: job.Timeout})
	} else {
		r.ctx, r.cancel = context.WithCancel(context.Background())
	}
	svc, err := newShuffleService(job)
	if err != nil {
		r.close()
		return nil, err
	}
	r.svc = svc
	r.pub = newPublishedRows(len(job.Splits), svc, job.Remote)
	// A snapshot that doesn't fit the job's shape is a miss.
	if job.MapCache != nil && job.CacheKey != "" {
		sp := r.span.Tracer().Start(obs.CatPhase, "cache.get", r.span.ID(), -1, -1)
		outcome := "miss"
		if snap, ok := job.MapCache.Get(job.CacheKey); ok && snap.matches(job) {
			r.cached, outcome = snap, "hit"
		}
		sp.EndOutcome(outcome)
	}
	r.nb = newNodeBuffer(job)
	if r.nb != nil && r.cached != nil {
		copy(r.nb.stats, r.cached.Groups)
	}
	return r, nil
}

func (r *jobRun) close() {
	if r.svc != nil {
		r.svc.Close()
	}
	r.cancel()
	r.span.EndOutcome(r.outcome)
}

// runner builds one phase's attempt scheduler; the caller fills in the
// phase's run/commit/discard hooks. The phase's context is canceled with
// the job's at close, if not by a failure before.
func (r *jobRun) runner(phase string, n int) *phaseRunner {
	ctx, cancel := context.WithCancelCause(r.ctx)
	return &phaseRunner{
		phase:   phase,
		n:       n,
		limit:   r.job.parallelism(),
		policy:  r.job.Retry,
		jc:      r.jc,
		ctx:     ctx,
		cancel:  cancel,
		next:    make([]int, n),
		tracer:  r.span.Tracer(),
		jobSpan: r.span.ID(),
		attemptHist: r.job.Obs.R().Histogram("scikey_attempt_seconds",
			"Duration of task attempts by phase", "seconds", nil, obs.L("phase", phase)),
	}
}

// mapPhase restores the published rows from the cache or runs every map
// task to a committed attempt.
func (r *jobRun) mapPhase() error {
	job := r.job
	r.mapRunner = r.runner("map", len(job.Splits))
	r.mapRunner.run = func(ctx context.Context, task, attempt int, sp obs.Span) (any, error) {
		if job.Remote != nil {
			rr, err := job.Remote.RunRemote(PhaseMap, task, attempt, func() bool { return ctx.Err() != nil })
			return newRemoteMapTask(job, task, attempt, rr), err
		}
		t := newMapTask(ctx, job, task, attempt)
		t.tracer, t.span = sp.Tracer(), sp.ID()
		return t, t.run(job.Splits[task])
	}
	r.mapRunner.commit = func(task, attempt int, result any) error {
		r.commitMap(result.(*mapTask))
		return nil
	}
	r.mapRunner.discard = func(task, attempt int, result any, err error) {
		t, _ := result.(*mapTask)
		r.addMapWaste(t)
	}
	if r.cached == nil {
		return r.mapRunner.runAll()
	}
	// Commit each cached task as a remote map attempt commits, and publish
	// its row under its original attempt number, exactly as the producing
	// run did. No map attempt runs and no attempt span or histogram sample
	// is recorded — "map attempts: zero" is the observable cache-hit
	// signature the lattice asserts. A repair numbers its attempts after
	// the restored ones.
	for m := range r.cached.Tasks {
		a := r.cached.Attempts[m]
		t := newRemoteMapTask(job, m, a, &r.cached.Tasks[m])
		r.tasks[m] = t
		r.mapRunner.next[m] = a + 1
		r.pub.install(m, a, t.finals)
	}
	return nil
}

// commitMap records a winning (or recovery) map attempt and makes its output
// visible: installed directly, or — when combining — fed to the node buffer,
// deferring publication to the group's combine (the reduce phase only starts
// after the map barrier, so nothing fetches early).
func (r *jobRun) commitMap(t *mapTask) {
	r.mu.Lock()
	r.tasks[t.id] = t
	r.mu.Unlock()
	if r.nb != nil {
		r.nb.feed(t.id, t.attempt, t.finals)
		return
	}
	r.pub.install(t.id, t.attempt, t.finals)
}

func (r *jobRun) addMapWaste(t *mapTask) {
	if t == nil {
		return
	}
	r.mu.Lock()
	r.wastedMaps = append(r.wastedMaps, t.footprint)
	r.mu.Unlock()
}

// rerunMap re-executes map task m until an attempt succeeds (within the
// retry budget), swapping the fresh output in and recording the replaced
// attempt's work as waste. Callers hold repairMu.
func (r *jobRun) rerunMap(m int) bool {
	r.mu.Lock()
	cur := r.tasks[m]
	r.mu.Unlock()
	for rerun := 0; rerun < r.job.Retry.maxAttempts(); rerun++ {
		if r.ctx.Err() != nil {
			return false
		}
		a := r.mapRunner.nextAttempt(m)
		sp := r.mapRunner.startSpan(m, a, false)
		res, err := r.mapRunner.runOne(r.mapRunner.ctx, m, a, sp)
		sp.EndOutcome(attemptOutcome(err, true))
		nt, _ := res.(*mapTask)
		if err == nil {
			r.commitMap(nt)
			r.addMapWaste(cur)
			r.jc.MapTasksRecovered.Add(1)
			r.jc.TaskRetries.Add(1)
			return true
		}
		r.mapRunner.countFailure(m, a, err)
		r.addMapWaste(nt)
	}
	return false
}

// combineGroup (re)combines node group g from the freshest committed member
// outputs and installs the combined view. A member segment that fails to
// decode mid-combine is corruption: the producing task re-runs, re-feeds the
// buffer, and the combine retries — bounded by the per-task retry budget
// across the whole group. Callers hold repairMu.
func (r *jobRun) combineGroup(g int) error {
	budget := r.job.Retry.maxAttempts()*r.nb.groupSize(g) + 1
	for try := 0; try < budget; try++ {
		// The combine computes like an attempt, so it holds a core like one;
		// it gives the token back before any re-run takes its own.
		if !cpu.acquire(r.ctx.Done()) {
			return context.Cause(r.ctx)
		}
		rows, err := r.nb.combine(g)
		cpu.release()
		if err == nil {
			for _, nr := range rows {
				r.pub.install(nr.task, nr.attempt, nr.row)
			}
			return nil
		}
		var ce *ErrCorruptSegment
		if !errors.As(err, &ce) || r.ctx.Err() != nil {
			return err
		}
		r.jc.CorruptSegmentsDetected.Add(1)
		if !r.rerunMap(ce.MapTask) {
			return err
		}
	}
	return fmt.Errorf("mapreduce: job %q: combine of node group %d exhausted its retry budget", r.job.Name, g)
}

// combinePhase runs strictly between the map barrier and the reduce phase,
// so reducers never see raw member segments: every node group's committed
// segments merge — equal-key runs folded with the job's Combiner inside
// MergeCut windows — and only the combined view is published. A restored
// map phase is already the combined view.
func (r *jobRun) combinePhase() error {
	if r.nb == nil || r.cached != nil {
		return nil
	}
	r.repairMu.Lock()
	defer r.repairMu.Unlock()
	return r.combineAll()
}

// combineAll combines every node group. Callers hold repairMu.
func (r *jobRun) combineAll() error {
	for g := 0; g < r.nb.numGroups(); g++ {
		if err := r.combineGroup(g); err != nil {
			return err
		}
	}
	return nil
}

// dropRestore turns a restored run into a miss once a reducer finds
// restored output corrupt or lost: the map and combine phases run as they
// would have, each task's attempt numbered after its restored one, and
// replace every restored row; the reducer's retry fetches the fresh rows,
// and the run stores its own snapshot over the bad entry. Callers hold
// repairMu.
func (r *jobRun) dropRestore() bool {
	r.cached = nil
	if r.mapRunner.runAll() != nil {
		return false
	}
	return r.nb == nil || r.combineAll() == nil
}

// recoverMap re-executes the map task named by a corrupt-segment report —
// detected corruption or map output lost to an exhausted networked fetch —
// replacing (and republishing) its output so the reducer's retry reads
// intact bytes. With combining, the re-fed group recombines and republishes
// before the reducer retries. Restored output is replaced whole, by
// dropRestore.
func (r *jobRun) recoverMap(ce *ErrCorruptSegment) bool {
	r.repairMu.Lock()
	defer r.repairMu.Unlock()
	r.mu.Lock()
	cur := r.tasks[ce.MapTask]
	r.mu.Unlock()
	if cur == nil {
		return false
	}
	if cur.attempt != ce.Attempt {
		// A newer attempt already replaced the reported output; the
		// reducer's retry will fetch the fresh segments.
		return true
	}
	if r.cached != nil {
		return r.dropRestore()
	}
	if !r.rerunMap(ce.MapTask) {
		return false
	}
	return r.nb == nil || r.combineGroup(r.nb.groupOf(ce.MapTask)) == nil
}

// reducePhase runs every reduce task to a committed attempt, repairing
// corrupt or lost map output through recoverMap.
func (r *jobRun) reducePhase() error {
	job := r.job
	rr := r.runner("reduce", job.NumReducers)
	rr.run = func(ctx context.Context, task, attempt int, sp obs.Span) (any, error) {
		if job.Remote != nil {
			res, err := job.Remote.RunRemote(PhaseReduce, task, attempt, func() bool { return ctx.Err() != nil })
			return newRemoteReduceTask(job, task, attempt, res), err
		}
		t := newReduceTask(ctx, job, task, attempt)
		t.tracer, t.span = sp.Tracer(), sp.ID()
		if r.svc == nil {
			return t, t.run(memSource{outs: r.pub.snapshot()})
		}
		return t, t.run(&netSource{
			ctx:       ctx,
			svc:       r.svc,
			n:         len(job.Splits),
			attemptOf: r.pub.attemptOf,
		})
	}
	rr.commit = func(task, attempt int, result any) error {
		t := result.(*reduceTask)
		if err := t.commit(); err != nil {
			return err
		}
		r.mu.Lock()
		r.rtasks[task] = t
		r.mu.Unlock()
		return nil
	}
	rr.discard = func(task, attempt int, result any, err error) {
		t, _ := result.(*reduceTask)
		if t == nil {
			return
		}
		t.abort()
		r.mu.Lock()
		r.wastedReduces = append(r.wastedReduces, t.footprint)
		r.mu.Unlock()
	}
	rr.repair = func(task, attempt int, err error) bool {
		var ce *ErrCorruptSegment
		return errors.As(err, &ce) && r.recoverMap(ce)
	}
	rr.onFailure = func(task, attempt int, err error) {
		var ce *ErrCorruptSegment
		if errors.As(err, &ce) {
			r.jc.CorruptSegmentsDetected.Add(1)
		}
	}
	return rr.runAll()
}

// assemble builds the Result from the surviving attempts only. Their private
// counters merge into the job totals here, so a faulty run that recovers
// reports byte-for-byte the same payload counters as a fault-free one.
func (r *jobRun) assemble() (*Result, error) {
	job, jc := r.job, r.jc
	if r.svc != nil {
		mergeShuffleMetrics(jc, r.svc.Metrics())
	}
	if r.nb != nil {
		r.nb.fold(jc)
	}
	res := &Result{
		Counters:          jc,
		MapTasks:          make([]cluster.Task, len(r.tasks)),
		MapSpecs:          make([]cluster.MapSpec, len(r.tasks)),
		ReduceTasks:       make([]cluster.Task, job.NumReducers),
		OutputPaths:       make([]string, job.NumReducers),
		MapPhaseCached:    r.cached != nil,
		WastedMapTasks:    r.wastedMaps,
		WastedReduceTasks: r.wastedReduces,
	}
	for i, t := range r.tasks {
		jc.Merge(t.counters())
		res.MapTasks[i] = t.footprint
		res.MapSpecs[i] = cluster.MapSpec{Task: t.footprint, InputBytes: t.ctx.inputBytes, Hosts: t.hosts}
		res.CalSamples = append(res.CalSamples, calSample(t.footprint, t.wallSeconds))
	}
	for i, t := range r.rtasks {
		jc.Merge(t.counters())
		res.ReduceTasks[i] = t.footprint
		res.OutputPaths[i] = t.outPath
		res.CalSamples = append(res.CalSamples, calSample(t.footprint, t.wallSeconds))
	}
	if r.cached == nil && job.MapCache != nil && job.CacheKey != "" {
		// Store the published map state for the next identical query. The
		// cache is best-effort: a backend that cannot persist the snapshot
		// must not fail a job that already succeeded, so Put errors are
		// dropped (backends surface them through their own metrics).
		sp := r.span.Tracer().Start(obs.CatPhase, "cache.put", r.span.ID(), -1, -1)
		snap, err := snapshotMapPhase(job, r.tasks, r.pub, r.nb)
		// The snapshot aliases the published segments and nothing below
		// reads the run's own state: drop the run's references, so the map
		// output can be collected as soon as the cache is done reading it.
		r.tasks, r.pub, r.nb = nil, nil, nil
		if err == nil {
			_ = job.MapCache.Put(job.CacheKey, snap)
		}
		sp.End()
	}
	publishCounters(job.Obs.R(), jc)
	r.outcome = "ok"
	return res, nil
}

// calSample pairs one committed attempt's modeled footprint with its
// observed wall clock.
func calSample(fp cluster.Task, wallSeconds float64) cluster.CalSample {
	return cluster.CalSample{
		CPUSeconds:  fp.CPUSeconds,
		DiskBytes:   fp.DiskBytes,
		NetBytes:    fp.NetBytes,
		WallSeconds: wallSeconds,
	}
}

package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scikey/internal/hdfs"
)

// loopbackRemote implements Remote by running attempts in-process through
// the same RunMapAttempt/RunReduceAttempt entry points a worker process
// uses, against a separate "worker-side" job instance with its own
// filesystem — the cluster data path minus the TCP. failOnce lists attempt
// coordinates ("map/task/attempt") whose first execution is reported as a
// lost lease after the work ran, charging the footprint as waste exactly
// like a worker killed after Started. publishes logs every PublishRemote
// call as "task/attempt/len(parts)", in call order.
type loopbackRemote struct {
	workerJob func() *Job

	mu   sync.Mutex
	segs map[int]*struct {
		attempt int
		parts   [][]byte
	}
	failOnce  map[string]bool
	runs      int
	publishes []string
}

func newLoopbackRemote(workerJob func() *Job) *loopbackRemote {
	return &loopbackRemote{
		workerJob: workerJob,
		segs: make(map[int]*struct {
			attempt int
			parts   [][]byte
		}),
		failOnce: make(map[string]bool),
	}
}

func (r *loopbackRemote) RunRemote(phase string, task, attempt int, canceled func() bool) (*RemoteResult, error) {
	r.mu.Lock()
	r.runs++
	r.mu.Unlock()
	ctx, stop := pollContext(canceled)
	defer stop()
	job := r.workerJob()
	var rr *RemoteResult
	var err error
	switch phase {
	case PhaseMap:
		rr, err = RunMapAttempt(ctx, job, task, attempt)
	case PhaseReduce:
		rr, err = RunReduceAttempt(ctx, job, task, attempt, r.fetch)
	default:
		return nil, fmt.Errorf("unknown phase %q", phase)
	}
	key := fmt.Sprintf("%s/%d/%d", phase, task, attempt)
	r.mu.Lock()
	lose := r.failOnce[key]
	delete(r.failOnce, key)
	r.mu.Unlock()
	if lose {
		// The worker did the work and died before reporting: the
		// coordinator sees only a lapsed lease plus the footprint charge.
		return &RemoteResult{Footprint: rr.Footprint, WallSeconds: rr.WallSeconds},
			errors.New("lease expired: worker heartbeat lapsed")
	}
	return rr, err
}

// pollContext turns the engine's canceled poll into the context the
// worker-side attempt runs under, as a worker turns its revoked lease into
// one. The poller exits when stop is called.
func pollContext(canceled func() bool) (ctx context.Context, stop context.CancelFunc) {
	ctx, stop = context.WithCancel(context.Background())
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for !canceled() {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
		stop()
	}()
	return ctx, stop
}

func (r *loopbackRemote) PublishRemote(mapTask, attempt int, parts [][]byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.publishes = append(r.publishes, fmt.Sprintf("%d/%d/%d", mapTask, attempt, len(parts)))
	if e, ok := r.segs[mapTask]; ok && e.attempt > attempt {
		return
	}
	r.segs[mapTask] = &struct {
		attempt int
		parts   [][]byte
	}{attempt, parts}
}

func (r *loopbackRemote) fetch(mapTask, part int) ([]byte, int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.segs[mapTask]
	if !ok {
		return nil, 0, fmt.Errorf("map task %d not published", mapTask)
	}
	return e.parts[part], e.attempt, nil
}

var remoteDocs = []string{
	"the quick brown fox jumps over the lazy dog",
	"pack my box with five dozen liquor jugs",
	"the five boxing wizards jump quickly",
	"how vexingly quick daft zebras jump",
}

// runRemoteJob runs the word-count job with a loopback Remote and returns
// the result plus the coordinator-side filesystem.
func runRemoteJob(t *testing.T, par int, failOnce ...string) (*hdfs.FileSystem, *Result, *loopbackRemote) {
	t.Helper()
	fs := testFS()
	job := wordCountJob(fs, remoteDocs, 3, true)
	job.Parallelism = par
	job.Retry = RetryPolicy{MaxAttempts: 3}
	remote := newLoopbackRemote(func() *Job {
		return wordCountJob(testFS(), remoteDocs, 3, true)
	})
	for _, k := range failOnce {
		remote.failOnce[k] = true
	}
	job.Remote = remote
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	return fs, res, remote
}

// TestRemoteLeaseLossRetriesAndChargesWaste: a lease lost mid-map and one
// lost mid-reduce retry under fresh attempts; output stays byte-identical
// and the lost attempts' footprints land in the waste ledger.
func TestRemoteLeaseLossRetriesAndChargesWaste(t *testing.T) {
	refFS, refRes, _ := runRemoteJob(t, 1)
	refOuts, refCounts := readRawOutputs(t, refFS, refRes.OutputPaths), payload(refRes.Counters)

	fs, res, _ := runRemoteJob(t, 2, "map/1/0", "reduce/2/0")
	outs, counts := readRawOutputs(t, fs, res.OutputPaths), payload(res.Counters)
	for i := range refOuts {
		if outs[i] != refOuts[i] {
			t.Errorf("output %d differs after lease losses", i)
		}
	}
	// Payload counters must match the clean run exactly: lost attempts
	// never double-count.
	for name, want := range refCounts {
		if counts[name] != want {
			t.Errorf("counter %s = %d, want %d (lost attempts must not double-count)", name, counts[name], want)
		}
	}
	if res.Counters.MapAttemptsFailed.Value() != 1 || res.Counters.ReduceAttemptsFailed.Value() != 1 {
		t.Errorf("failure bookkeeping = %d map, %d reduce; want 1 and 1",
			res.Counters.MapAttemptsFailed.Value(), res.Counters.ReduceAttemptsFailed.Value())
	}
	if len(res.WastedMapTasks) != 1 || len(res.WastedReduceTasks) != 1 {
		t.Fatalf("waste ledger = %d map, %d reduce entries; want 1 and 1",
			len(res.WastedMapTasks), len(res.WastedReduceTasks))
	}
	if res.WastedMapTasks[0].CPUSeconds <= 0 && res.WastedMapTasks[0].DiskBytes <= 0 {
		t.Error("lost map attempt charged an empty footprint")
	}
}

// TestRemoteExhaustedBudgetFails: a lease that keeps lapsing consumes the
// retry budget and surfaces as an AttemptError naming the task.
func TestRemoteExhaustedBudgetFails(t *testing.T) {
	fs := testFS()
	job := wordCountJob(fs, remoteDocs, 2, false)
	job.Retry = RetryPolicy{MaxAttempts: 2}
	remote := newLoopbackRemote(func() *Job {
		return wordCountJob(testFS(), remoteDocs, 2, false)
	})
	remote.failOnce["map/0/0"] = true
	remote.failOnce["map/0/1"] = true
	job.Remote = remote
	_, err := Run(job)
	var ae *AttemptError
	if !errors.As(err, &ae) || ae.Phase != "map" || ae.Task != 0 {
		t.Fatalf("exhausted budget returned %v, want AttemptError for map task 0", err)
	}
	if !strings.Contains(err.Error(), "lease expired") {
		t.Errorf("error %v does not surface the lease loss", err)
	}
}

// TestRemoteCancellationReachesInFlightAttempts: a fatal failure in one
// remote attempt cancels another already running on its worker — the
// engine's canceled poll reaches the worker-side attempt's context.
func TestRemoteCancellationReachesInFlightAttempts(t *testing.T) {
	var sawCancel atomic.Bool
	build := func() *Job {
		job := wordCountJob(testFS(), []string{"a", "b"}, 1, false)
		job.NewMapper = func() Mapper {
			return MapperFunc(func(ctx *TaskContext, split Split, emit Emit) error {
				if split.ID == 1 {
					time.Sleep(5 * time.Millisecond)
					return fmt.Errorf("boom")
				}
				deadline := time.Now().Add(5 * time.Second)
				for !ctx.Canceled() {
					if time.Now().After(deadline) {
						return fmt.Errorf("cancel signal never arrived")
					}
					time.Sleep(time.Millisecond)
				}
				sawCancel.Store(true)
				return nil
			})
		}
		return job
	}
	job := build()
	job.Parallelism = 2
	job.Remote = newLoopbackRemote(build)
	_, err := Run(job)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected the failing task's error, got: %v", err)
	}
	if !sawCancel.Load() {
		t.Error("in-flight remote attempt never observed cancellation")
	}
}

// TestRemoteRejectsNetworkedShuffle: the two transports are mutually
// exclusive; validation must say so before any task runs.
func TestRemoteRejectsNetworkedShuffle(t *testing.T) {
	fs := testFS()
	job := wordCountJob(fs, remoteDocs, 2, false)
	job.Shuffle = &ShuffleConfig{Mode: ShuffleTCP}
	job.Remote = newLoopbackRemote(func() *Job { return nil })
	_, err := Run(job)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("networked shuffle + remote accepted: %v", err)
	}
}

// TestRemotePublishExactlyOnce pins the PublishRemote call sequence — every
// row that becomes visible to reducers is pushed once, under the attempt it
// was committed as — to the sequences the engine produced when the fan-out
// was spelled three times (captured at commit c8fa7cb, sequential
// scheduling): a plain run publishes each map task once in order; with two
// node groups every member publishes (empty rows included) under its own
// attempt, group by group; a task recovered from a corrupt segment
// republishes once under its new attempt; a member recovered mid-combine is
// only ever published as its new attempt; and a cache hit replays the cold
// run's sequence.
func TestRemotePublishExactlyOnce(t *testing.T) {
	combine := func(job *Job) { job.Combine = &CombineConfig{Combiner: SumInt32, Nodes: 2} }
	cache := &memCache{}
	cached := func(job *Job) { job.MapCache, job.CacheKey = cache, "publish-log" }
	cases := []struct {
		name   string
		mut    func(job *Job)
		faults string
		want   []string
	}{
		{"plain", func(*Job) {}, "", []string{"0/0/3", "1/0/3", "2/0/3", "3/0/3"}},
		{"combine", combine, "", []string{"0/0/3", "2/0/3", "1/0/3", "3/0/3"}},
		{"corrupt-recovery", func(*Job) {}, "seed=7;segment:1.0:corrupt@0",
			[]string{"0/0/3", "1/0/3", "2/0/3", "3/0/3", "1/1/3"}},
		{"combine-corrupt-recovery", combine, "seed=7;segment:0.0:corrupt@0",
			[]string{"0/1/3", "2/0/3", "1/0/3", "3/0/3"}},
		{"cache-cold", cached, "", []string{"0/0/3", "1/0/3", "2/0/3", "3/0/3"}},
		{"cache-hit", cached, "", []string{"0/0/3", "1/0/3", "2/0/3", "3/0/3"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Driver and workers share one injector, as a cluster run's job
			// spec carries one fault schedule to every process.
			inj := mustInjector(t, tc.faults)
			build := func() *Job {
				job := wordCountJob(testFS(), remoteDocs, 3, true)
				job.Faults = inj
				return job
			}
			job := build()
			job.Retry = RetryPolicy{MaxAttempts: 3}
			tc.mut(job)
			remote := newLoopbackRemote(build)
			job.Remote = remote
			res, err := Run(job)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(remote.publishes, tc.want) {
				t.Errorf("PublishRemote sequence = %q, want %q", remote.publishes, tc.want)
			}
			if want := tc.name == "cache-hit"; res.MapPhaseCached != want {
				t.Errorf("MapPhaseCached = %v, want %v", res.MapPhaseCached, want)
			}
			if want := int64(strings.Count(tc.name, "recovery")); res.Counters.MapTasksRecovered.Value() != want {
				t.Errorf("MapTasksRecovered = %d, want %d", res.Counters.MapTasksRecovered.Value(), want)
			}
		})
	}
}

package mapreduce

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scikey/internal/codec"
	"scikey/internal/faults"
	"scikey/internal/hdfs"
)

func mustInjector(t *testing.T, spec string) *faults.Injector {
	t.Helper()
	inj, err := faults.NewFromSpec(spec)
	if err != nil {
		t.Fatalf("bad fault spec %q: %v", spec, err)
	}
	return inj
}

// faultDocs feeds every reducer from every mapper so any partition's segment
// is a meaningful corruption target.
var faultDocs = []string{
	"the quick brown fox jumps over the lazy dog",
	"pack my box with five dozen liquor jugs",
	"how vexingly quick daft zebras jump",
}

// faultJob is the word count over faultDocs, two reducers, under a fault
// schedule.
func faultJob(t *testing.T, fs *hdfs.FileSystem, spec string, policy RetryPolicy, parallelism int) *Job {
	t.Helper()
	job := wordCountJob(fs, faultDocs, 2, false)
	job.Parallelism = parallelism
	job.Retry = policy
	job.Faults = mustInjector(t, spec)
	return job
}

func runFaultJob(t *testing.T, spec string, policy RetryPolicy, parallelism int) (*hdfs.FileSystem, *Result, error) {
	t.Helper()
	fs := testFS()
	res, err := Run(faultJob(t, fs, spec, policy, parallelism))
	return fs, res, err
}

// readRawOutputs returns the exact bytes of each output file, for
// byte-identical comparisons between faulty and fault-free runs.
func readRawOutputs(t *testing.T, fs *hdfs.FileSystem, paths []string) []string {
	t.Helper()
	out := make([]string, len(paths))
	for i, p := range paths {
		data, err := fs.ReadAll(p)
		if err != nil {
			t.Fatalf("reading %s: %v", p, err)
		}
		out[i] = string(data)
	}
	return out
}

// TestMapperPanicBecomesErrorSequential is the sequential twin of the
// parallel panic test: the one-goroutine path must contain panics too.
func TestMapperPanicBecomesErrorSequential(t *testing.T) {
	fs := testFS()
	job := wordCountJob(fs, []string{"a", "b", "c", "d"}, 1, false)
	job.Parallelism = 1
	job.NewMapper = func() Mapper {
		return MapperFunc(func(ctx *TaskContext, split Split, emit Emit) error {
			if split.ID == 2 {
				panic("map panic")
			}
			emit([]byte("k"), []byte{0, 0, 0, 1})
			return nil
		})
	}
	_, err := Run(job)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("panic not converted to error: %v", err)
	}
}

// TestNoRetryFailsWithTypedError: the same fault schedule with retries
// disabled must fail with an AttemptError naming the task and attempt, and
// the injected cause must remain inspectable.
func TestNoRetryFailsWithTypedError(t *testing.T) {
	_, _, err := runFaultJob(t, "map:1:error@0", RetryPolicy{}, 1)
	if err == nil {
		t.Fatal("expected failure with retries disabled")
	}
	var ae *AttemptError
	if !errors.As(err, &ae) {
		t.Fatalf("error is not an AttemptError: %v", err)
	}
	if ae.Phase != "map" || ae.Task != 1 || ae.Attempt != 0 {
		t.Errorf("AttemptError = %+v, want map task 1 attempt 0", ae)
	}
	if !faults.IsTransient(err) {
		t.Errorf("injected cause not inspectable through the chain: %v", err)
	}
}

// TestCorruptSegmentWithoutRetriesFails: without a retry budget, corruption
// is fatal and the typed error names the producing map task.
func TestCorruptSegmentWithoutRetriesFails(t *testing.T) {
	_, _, err := runFaultJob(t, "seed=7;segment:2.0:corrupt@0", RetryPolicy{}, 1)
	if err == nil {
		t.Fatal("expected corruption to fail the job without retries")
	}
	var ce *ErrCorruptSegment
	if !errors.As(err, &ce) {
		t.Fatalf("error chain has no ErrCorruptSegment: %v", err)
	}
	if ce.MapTask != 2 || ce.Attempt != 0 {
		t.Errorf("corruption blamed on map %d attempt %d, want map 2 attempt 0", ce.MapTask, ce.Attempt)
	}
}

// TestSpeculativeExecution: a straggling map attempt is raced by a backup;
// the first finisher wins and the loser is charged as waste.
func TestSpeculativeExecution(t *testing.T) {
	policy := RetryPolicy{
		MaxAttempts:      2,
		SpeculativeAfter: 10 * time.Millisecond,
	}
	fs, res, err := runFaultJob(t, "map:0:slow=300ms@0", policy, 2)
	if err != nil {
		t.Fatalf("speculative run failed: %v", err)
	}
	if got := readWordCounts(t, fs, res.OutputPaths); got["the"] != 2 {
		t.Errorf("speculative output wrong: %v", got)
	}
	c := res.Counters
	if c.SpeculativeAttempts.Value() == 0 {
		t.Error("no speculative attempt launched for the straggler")
	}
	if c.SpeculativeWasted.Value() == 0 {
		t.Error("losing attempt not recorded as speculative waste")
	}
	if len(res.WastedMapTasks) == 0 {
		t.Error("speculative loser's footprint not recorded")
	}
}

// TestBackoffDeterministic: the retry delay is a pure function of
// (seed, task, failures), jittered within [base/2, base).
func TestBackoffDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, Backoff: 100 * time.Millisecond, BackoffMax: time.Second, Seed: 42}
	for task := 0; task < 3; task++ {
		for failures := 1; failures <= 4; failures++ {
			d1 := p.delay(task, failures)
			d2 := p.delay(task, failures)
			if d1 != d2 {
				t.Fatalf("delay(%d,%d) not deterministic: %v vs %v", task, failures, d1, d2)
			}
			base := p.Backoff << (failures - 1)
			if base > p.BackoffMax {
				base = p.BackoffMax
			}
			if d1 < base/2 || d1 >= base {
				t.Errorf("delay(%d,%d) = %v outside [%v,%v)", task, failures, d1, base/2, base)
			}
		}
	}
	if p.delay(0, 0) != 0 {
		t.Error("no failures must mean no delay")
	}
	if (RetryPolicy{MaxAttempts: 3}).delay(0, 2) != 0 {
		t.Error("zero base backoff must retry immediately")
	}
	// Different seeds should shift the jitter for at least one slot.
	q := p
	q.Seed = 43
	var moved bool
	for task := 0; task < 8 && !moved; task++ {
		moved = p.delay(task, 1) != q.delay(task, 1)
	}
	if !moved {
		t.Error("seed does not influence jitter")
	}
}

// TestEarlyTerminationSequential: after the first failure, queued tasks must
// never start.
func TestEarlyTerminationSequential(t *testing.T) {
	fs := testFS()
	var started atomic.Int32
	job := wordCountJob(fs, []string{"a", "b", "c", "d"}, 1, false)
	job.NewMapper = func() Mapper {
		return MapperFunc(func(ctx *TaskContext, split Split, emit Emit) error {
			started.Add(1)
			if split.ID == 1 {
				return fmt.Errorf("boom")
			}
			emit([]byte("k"), []byte{0, 0, 0, 1})
			return nil
		})
	}
	if _, err := Run(job); err == nil {
		t.Fatal("expected failure")
	}
	if n := started.Load(); n != 2 {
		t.Errorf("%d mappers started, want 2 (tasks after the failure must not run)", n)
	}
}

// TestCancellationReachesInFlightAttempts: a failure in one task must cancel
// attempts already running, and a canceled attempt's emits are dropped.
func TestCancellationReachesInFlightAttempts(t *testing.T) {
	fs := testFS()
	var sawCancel atomic.Bool
	job := wordCountJob(fs, []string{"a", "b"}, 1, false)
	job.Parallelism = 2
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
			emit([]byte("late"), []byte{0, 0, 0, 1}) // must be dropped
			return nil
		})
	}
	_, err := Run(job)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected the failing task's error, got: %v", err)
	}
	if !sawCancel.Load() {
		t.Error("in-flight attempt never observed cancellation")
	}
}

// codedFaultRun is what the coded-validation tests compare: the recovered
// run's result, the map attempts in the order they started, and how often
// each fault rule fired.
type codedFaultRun struct {
	fs      *hdfs.FileSystem
	res     *Result
	mapRuns []string
	fired   map[string]int
}

// runCodedFaultJob is runFaultJob with the map output coded by c, attempts
// run one at a time so the order producers re-run in is the order recovery
// chose, and every map attempt noted as it starts.
func runCodedFaultJob(t *testing.T, c codec.Codec, spec string, policy RetryPolicy) (codedFaultRun, error) {
	t.Helper()
	fs := testFS()
	job := faultJob(t, fs, spec, policy, 1)
	job.MapOutputCodec = c
	var mu sync.Mutex
	var mapRuns []string
	newMapper := job.NewMapper
	job.NewMapper = func() Mapper {
		inner := newMapper()
		return MapperFunc(func(ctx *TaskContext, split Split, emit Emit) error {
			mu.Lock()
			mapRuns = append(mapRuns, fmt.Sprintf("%d.%d", ctx.TaskID, ctx.Attempt))
			mu.Unlock()
			return inner.Map(ctx, split, emit)
		})
	}
	res, err := Run(job)
	return codedFaultRun{fs: fs, res: res, mapRuns: mapRuns, fired: job.Faults.Fired()}, err
}

// TestCodedValidationNamesLowestCorruptProducer: with the final level coded,
// a reduce attempt validates its segments on several goroutines, and two of
// reducer 0's three inputs are corrupt. Whichever scan finishes first, the
// attempt must blame the lower map task, as a sequential scan does, so that
// recovery re-runs the producers in the same order and charges the same
// counters run after run (the pinned values are the sequential scan's).
func TestCodedValidationNamesLowestCorruptProducer(t *testing.T) {
	c := codec.NewTransform(codec.Zlib)
	clean, err := runCodedFaultJob(t, c, "", RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	wantOut := readRawOutputs(t, clean.fs, clean.res.OutputPaths)
	for round := 0; round < 5; round++ {
		got, err := runCodedFaultJob(t, c, "seed=7;segment:0.0:corrupt@0;segment:2.0:corrupt@0", RetryPolicy{MaxAttempts: 4})
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		if out := readRawOutputs(t, got.fs, got.res.OutputPaths); !slices.Equal(out, wantOut) {
			t.Fatal("output differs from the fault-free run")
		}
		if want := []string{"0.0", "1.0", "2.0", "0.1", "2.1"}; !slices.Equal(got.mapRuns, want) {
			t.Fatalf("map attempts ran as %v, want %v", got.mapRuns, want)
		}
		jc := got.res.Counters
		if n := jc.CorruptSegmentsDetected.Value(); n != 2 {
			t.Errorf("corrupt segments detected = %d, want 2", n)
		}
		if n := jc.MapTasksRecovered.Value(); n != 2 {
			t.Errorf("map tasks recovered = %d, want 2", n)
		}
		if n := jc.TaskRetries.Value(); n != 4 {
			t.Errorf("task retries = %d, want 4 (two re-run producers, two repeated reduce attempts)", n)
		}
	}

	// Without a retry budget the job fails on the first attempt's verdict,
	// which must be map 0's segment, never map 2's.
	_, err = runCodedFaultJob(t, c, "seed=7;segment:0.0:corrupt@0;segment:2.0:corrupt@0", RetryPolicy{})
	var ce *ErrCorruptSegment
	if !errors.As(err, &ce) {
		t.Fatalf("error chain has no ErrCorruptSegment: %v", err)
	}
	if ce.MapTask != 0 || ce.Attempt != 0 || ce.Partition != 0 {
		t.Errorf("corruption blamed on map %d attempt %d partition %d, want map 0 attempt 0 partition 0",
			ce.MapTask, ce.Attempt, ce.Partition)
	}
}

// TestCodedValidationScansEverySegment pins the one place the fan-out shows
// from outside. A codec-site rule fails the read of maps 0 and 2 in reduce
// attempt 0. Raw segments are validated by a sequential scan that stops at
// map 0's failure, so the rule fires once per reducer; coded segments are
// all scanned, so it fires for map 2 as well. The attempt's verdict, the
// retries and the output are the same either way. The raw job's count is
// also the evidence that raw validation does not fan out: with codec.None
// there is no codec seam to watch goroutines through, and a fan-out scans
// every segment by construction.
func TestCodedValidationScansEverySegment(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec codec.Codec
		fired int
	}{
		{"raw", codec.None, 2},
		{"transform+zlib", codec.NewTransform(codec.Zlib), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clean, err := runCodedFaultJob(t, tc.codec, "", RetryPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := runCodedFaultJob(t, tc.codec, "codec:0:error@0;codec:2:error@0", RetryPolicy{MaxAttempts: 2})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if !slices.Equal(readRawOutputs(t, got.fs, got.res.OutputPaths), readRawOutputs(t, clean.fs, clean.res.OutputPaths)) {
				t.Error("output differs from the fault-free run")
			}
			if n := got.fired["codec/error"]; n != tc.fired {
				t.Errorf("codec-site rule fired %d times, want %d", n, tc.fired)
			}
			jc := got.res.Counters
			if n := jc.TaskRetries.Value(); n != 2 {
				t.Errorf("task retries = %d, want 2 (one per reducer)", n)
			}
			if n := jc.ReduceAttemptsFailed.Value(); n != 2 {
				t.Errorf("failed reduce attempts = %d, want 2", n)
			}
			if n := jc.CorruptSegmentsDetected.Value(); n != 0 {
				t.Errorf("a transient read error was counted as %d corrupt segments", n)
			}
			if want := []string{"0.0", "1.0", "2.0"}; !slices.Equal(got.mapRuns, want) {
				t.Errorf("map attempts ran as %v, want %v: a transient read error re-runs no producer", got.mapRuns, want)
			}
		})
	}
}

package mapreduce

import (
	"errors"
	"math"
	"testing"
	"time"
)

// runShuffleJob runs the word-count fault job over the given shuffle
// transport.
func runShuffleJob(t *testing.T, sc *ShuffleConfig, spec string, policy RetryPolicy) (*Result, []string, error) {
	t.Helper()
	fs := testFS()
	job := wordCountJob(fs, faultDocs, 2, false)
	job.Retry = policy
	job.Shuffle = sc
	if spec != "" {
		job.Faults = mustInjector(t, spec)
	}
	res, err := Run(job)
	if err != nil {
		return nil, nil, err
	}
	return res, readRawOutputs(t, fs, res.OutputPaths), nil
}

// cleanBaseline runs the fault-free in-memory job: the byte-identity
// reference for every networked variant.
func cleanBaseline(t *testing.T) (*Result, []string) {
	t.Helper()
	res, out, err := runShuffleJob(t, nil, "", RetryPolicy{})
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	return res, out
}

// TestNetShuffleFaultMatrix is the acceptance matrix: every network fault
// site, crossed with the retry policies, must still yield byte-identical
// output — with the recovery work visible in the shuffle counters.
func TestNetShuffleFaultMatrix(t *testing.T) {
	_, want := cleanBaseline(t)

	policies := map[string]RetryPolicy{
		"immediate": {MaxAttempts: 3},
		"backoff":   {MaxAttempts: 3, Backoff: 5 * time.Millisecond, BackoffMax: 40 * time.Millisecond, Seed: 17},
	}
	faults := []struct {
		name string
		spec string
		// resumes marks faults that interrupt mid-segment, where the retry
		// must resume from a verified offset rather than refetch.
		resumes bool
	}{
		{name: "refuse", spec: "net:*:refuse@0"},
		{name: "cut", spec: "net:*:cut@0", resumes: true},
		{name: "stall", spec: "net:*:stall=300ms@0"},
		{name: "truncate", spec: "net:*:truncate@0", resumes: true},
		{name: "corrupt", spec: "net:*:corrupt@0"},
		{name: "mixed", spec: "seed=3;net:0:cut@0;net:1:truncate@0;net:2:refuse@0"},
	}
	for pname, policy := range policies {
		for _, f := range faults {
			t.Run(pname+"/"+f.name, func(t *testing.T) {
				// Small chunks so mid-segment faults leave a verified prefix
				// behind — the thing resume exists to exploit.
				sc := &ShuffleConfig{Mode: ShuffleTCP, FetchTimeout: 80 * time.Millisecond, ChunkBytes: 16}
				res, out, err := runShuffleJob(t, sc, f.spec, policy)
				if err != nil {
					t.Fatalf("faulty networked run failed: %v", err)
				}
				for i := range want {
					if out[i] != want[i] {
						t.Errorf("output %d differs from fault-free in-memory run", i)
					}
				}
				c := res.Counters
				if c.ShuffleFetchRetries.Value() == 0 {
					t.Error("injected fault never forced a fetch retry")
				}
				if f.resumes {
					if c.ShuffleFetchesResumed.Value() == 0 {
						t.Error("mid-segment fault recovered without a resume")
					}
				}
			})
		}
	}
}

// TestNetShuffleNodeOutageRecovers: a node-down window exhausts fetch
// budgets; the engine treats the map output as lost, re-executes the
// producing map task, republishes, and the reducer's retried fetch lands
// once the outage lifts — with byte-identical final output.
func TestNetShuffleNodeOutageRecovers(t *testing.T) {
	_, want := cleanBaseline(t)
	sc := &ShuffleConfig{
		Mode:             ShuffleTCP,
		FetchAttempts:    2,
		BreakerThreshold: -1, // isolate the lost-output path from breaker timing
	}
	policy := RetryPolicy{MaxAttempts: 8, Backoff: 10 * time.Millisecond, BackoffMax: 200 * time.Millisecond, Seed: 5}
	res, out, err := runShuffleJob(t, sc, "node:0:down=120ms", policy)
	if err != nil {
		t.Fatalf("node outage not survived: %v", err)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("output %d differs from fault-free in-memory run", i)
		}
	}
	c := res.Counters
	if c.MapTasksRecovered.Value() == 0 {
		t.Error("lost map output never re-executed its producer")
	}
	if c.ShuffleFetchRetries.Value() == 0 {
		t.Error("outage forced no fetch retries")
	}
	if len(res.WastedMapTasks) == 0 {
		t.Error("replaced map attempt's work not charged as waste")
	}
}

// TestNetShuffleExhaustionWithoutRetriesFails: when fetches exhaust and the
// task-retry budget is spent, the job fails with the lost segment's typed
// error naming the producing map task.
func TestNetShuffleExhaustionWithoutRetriesFails(t *testing.T) {
	sc := &ShuffleConfig{Mode: ShuffleTCP, FetchAttempts: 2, BreakerThreshold: -1}
	_, _, err := runShuffleJob(t, sc, "net:1:refuse@*", RetryPolicy{})
	if err == nil {
		t.Fatal("expected a permanently refused fetch to fail the job")
	}
	var ce *ErrCorruptSegment
	if !errors.As(err, &ce) {
		t.Fatalf("error chain has no ErrCorruptSegment: %v", err)
	}
	if ce.MapTask != 1 {
		t.Errorf("lost output blamed on map %d, want 1", ce.MapTask)
	}
}

// TestJobTimeoutCancelsAttempts: a deadline interrupts in-flight attempts
// and Run returns the typed timeout error promptly.
func TestJobTimeoutCancelsAttempts(t *testing.T) {
	fs := testFS()
	job := wordCountJob(fs, faultDocs, 2, false)
	job.Timeout = 50 * time.Millisecond
	job.NewMapper = func() Mapper {
		return MapperFunc(func(ctx *TaskContext, split Split, emit Emit) error {
			deadline := time.Now().Add(5 * time.Second)
			for !ctx.Canceled() && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			return nil
		})
	}
	start := time.Now()
	_, err := Run(job)
	elapsed := time.Since(start)
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if te.Timeout != job.Timeout {
		t.Errorf("TimeoutError.Timeout = %v, want %v", te.Timeout, job.Timeout)
	}
	if elapsed > 2*time.Second {
		t.Errorf("timeout took %v to take effect", elapsed)
	}
}

// TestJobTimeoutInterruptsBackoff: the deadline must cut a pending retry
// backoff short — a ten-minute delay cannot stall the exit.
func TestJobTimeoutInterruptsBackoff(t *testing.T) {
	fs := testFS()
	job := wordCountJob(fs, faultDocs, 2, false)
	job.Timeout = 80 * time.Millisecond
	job.Retry = RetryPolicy{MaxAttempts: 3, Backoff: 10 * time.Minute}
	job.Faults = mustInjector(t, "map:0:error@*")
	start := time.Now()
	_, err := Run(job)
	elapsed := time.Since(start)
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("backoff sleep survived the deadline for %v", elapsed)
	}
}

// TestJobTimeoutNotTriggeredOnFastJob: a generous deadline leaves a healthy
// run untouched.
func TestJobTimeoutNotTriggeredOnFastJob(t *testing.T) {
	fs := testFS()
	job := wordCountJob(fs, faultDocs, 2, false)
	job.Timeout = 30 * time.Second
	if _, err := Run(job); err != nil {
		t.Fatalf("deadline leaked into a healthy run: %v", err)
	}
}

// TestRetryPolicyDelayTable pins RetryPolicy.delay's edges: jitter bounds,
// BackoffMax capping, doubling, and saturation at deep failure counts.
func TestRetryPolicyDelayTable(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name     string
		policy   RetryPolicy
		task     int
		failures int
		lo, hi   time.Duration // want delay in [lo, hi); lo==hi means exact
	}{
		{"no failures yet", RetryPolicy{Backoff: 10 * ms}, 0, 0, 0, 0},
		{"zero base", RetryPolicy{}, 0, 3, 0, 0},
		{"negative failures", RetryPolicy{Backoff: 10 * ms}, 0, -1, 0, 0},
		{"first retry", RetryPolicy{Backoff: 10 * ms}, 0, 1, 5 * ms, 10 * ms},
		{"doubles", RetryPolicy{Backoff: 10 * ms}, 0, 3, 20 * ms, 40 * ms},
		{"cap engages", RetryPolicy{Backoff: 10 * ms, BackoffMax: 25 * ms}, 0, 3, 25 * ms / 2, 25 * ms},
		{"cap below base", RetryPolicy{Backoff: 10 * ms, BackoffMax: 4 * ms}, 0, 1, 2 * ms, 4 * ms},
		// A failure count deep enough to overflow naive shifting must
		// saturate at the cap, not wrap.
		{"saturates", RetryPolicy{Backoff: 10 * ms, BackoffMax: time.Second}, 0, 200, time.Second / 2, time.Second},
		{"saturates uncapped", RetryPolicy{Backoff: 10 * ms}, 0, 200, time.Hour, math.MaxInt64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.policy.delay(tc.task, tc.failures)
			if d != tc.policy.delay(tc.task, tc.failures) {
				t.Fatal("delay is not deterministic")
			}
			if tc.lo == tc.hi {
				if d != tc.lo {
					t.Fatalf("delay = %v, want exactly %v", d, tc.lo)
				}
				return
			}
			if d < tc.lo || d >= tc.hi {
				t.Fatalf("delay = %v, want in [%v, %v)", d, tc.lo, tc.hi)
			}
		})
	}
}

// TestShuffleConfigValidation rejects unknown modes.
func TestShuffleConfigValidation(t *testing.T) {
	fs := testFS()
	job := wordCountJob(fs, faultDocs, 2, false)
	job.Shuffle = &ShuffleConfig{Mode: "carrier-pigeon"}
	if _, err := Run(job); err == nil {
		t.Fatal("bogus shuffle mode accepted")
	}
}

package mapreduce

import (
	"strings"
	"testing"
)

// TestReduceOutputWriteFaultExhaustsBudget: when every attempt's output
// writes fail, the job must surface the write error — not panic, not hang.
func TestReduceOutputWriteFaultExhaustsBudget(t *testing.T) {
	_, _, err := runFaultJob(t, "out:0:error@*", RetryPolicy{MaxAttempts: 2}, 1)
	if err == nil {
		t.Fatal("job succeeded despite persistent reduce output faults")
	}
	if !strings.Contains(err.Error(), "reduce output write") {
		t.Errorf("error does not name the failing write: %v", err)
	}
}

// TestCorruptionValidatedBeforeReducer pins the streaming path's
// validate-then-reduce ordering: a reducer must never see bytes the
// segment's trailing CRC would reject. The reducer here panics on any
// record that is not word-count shaped; with an injected corrupt segment
// the job must still classify the corruption (re-executing the producing
// map) rather than surface a reducer panic on garbage input.
func TestCorruptionValidatedBeforeReducer(t *testing.T) {
	strict := func(job *Job) {
		inner := job.NewReducer
		job.NewReducer = func() Reducer {
			red := inner()
			return ReducerFunc(func(ctx *TaskContext, key []byte, values [][]byte, emit Emit) error {
				for _, b := range key {
					if b < 'a' || b > 'z' {
						panic("reducer fed a corrupt key")
					}
				}
				for _, v := range values {
					if len(v) != 4 {
						panic("reducer fed a corrupt value")
					}
				}
				return red.Reduce(ctx, key, values, emit)
			})
		}
	}
	cleanFS := testFS()
	clean := wordCountJob(cleanFS, faultDocs, 2, false)
	strict(clean)
	cleanRes, err := Run(clean)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	// Try several corruption targets so at least one schedule lands flips
	// inside record payload (not framing) — the case only pre-validation
	// catches before user code runs.
	classified := false
	for _, spec := range []string{
		"seed=1;segment:0.0:corrupt@0", "seed=2;segment:1.0:corrupt@0",
		"seed=3;segment:2.1:corrupt@0", "seed=4;segment:0.1:corrupt=64@0",
	} {
		fs := testFS()
		job := wordCountJob(fs, faultDocs, 2, false)
		strict(job)
		job.Retry = RetryPolicy{MaxAttempts: 3}
		job.Faults = mustInjector(t, spec)
		res, err := Run(job)
		if err != nil {
			t.Fatalf("%s: job did not recover: %v", spec, err)
		}
		want := readRawOutputs(t, cleanFS, cleanRes.OutputPaths)
		got := readRawOutputs(t, fs, res.OutputPaths)
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("%s: partition %d output differs after recovery", spec, i)
			}
		}
		if res.Counters.CorruptSegmentsDetected.Value() > 0 {
			classified = true
		}
	}
	if !classified {
		t.Error("no schedule was classified as segment corruption; test exercises nothing")
	}
}

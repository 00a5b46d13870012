package mapreduce

import (
	"strings"
	"testing"
	"time"

	"scikey/internal/cluster"
	"scikey/internal/obs"
)

// TestCountersMergeUnderSpeculation: with concurrent speculative attempts,
// only winners merge payload counters, so the published scikey_* series
// match the (speculation-free) reference values exactly — no double counting
// from the losing twins.
func TestCountersMergeUnderSpeculation(t *testing.T) {
	ref, _, err := runShuffleJob(t, nil, "", RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}

	fs := testFS()
	job := wordCountJob(fs, faultDocs, 2, false)
	job.Parallelism = 3
	job.Retry = RetryPolicy{
		MaxAttempts:      2,
		SpeculativeAfter: 5 * time.Millisecond,
	}
	job.Faults = mustInjector(t, "map:0:slow=150ms@0")
	ob := obs.New()
	job.Obs = ob
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.SpeculativeAttempts.Value() == 0 {
		t.Fatal("no speculation happened; the test exercises nothing")
	}

	r := ob.R()
	read := func(name string) int64 { return r.Counter(name, "", "").Value() }
	c := ref.Counters
	for _, m := range []struct {
		name string
		want int64
	}{
		{"scikey_map_output_records_total", c.MapOutputRecords.Value()},
		{"scikey_map_output_materialized_bytes_total", c.MapOutputMaterializedBytes.Value()},
		{"scikey_reduce_shuffle_bytes_total", c.ReduceShuffleBytes.Value()},
		{"scikey_reduce_output_records_total", c.ReduceOutputRecords.Value()},
	} {
		if got := read(m.name); got != m.want {
			t.Errorf("%s = %d, want %d (speculative losers must not merge)", m.name, got, m.want)
		}
	}
	if got := read("scikey_speculative_attempts_total"); got != res.Counters.SpeculativeAttempts.Value() {
		t.Errorf("scikey_speculative_attempts_total = %d, counters say %d",
			got, res.Counters.SpeculativeAttempts.Value())
	}
	// Every attempt — winner, loser, or failure — lands one sample in the
	// attempt-duration histogram.
	mapAttempts := r.Histogram("scikey_attempt_seconds", "", "seconds", nil, obs.L("phase", "map")).Count()
	wantAttempts := int64(len(faultDocs)) + res.Counters.SpeculativeAttempts.Value() +
		res.Counters.MapAttemptsFailed.Value()
	if mapAttempts < int64(len(faultDocs)) || mapAttempts > wantAttempts {
		t.Errorf("map attempt histogram count = %d, want within [%d, %d]",
			mapAttempts, len(faultDocs), wantAttempts)
	}
}

// TestTraceDistinguishesAttemptFates runs a job with an injected failure and
// a straggler and asserts the trace tells the outcomes apart: a failed
// attempt, the winning retry, a speculative twin pair with exactly one
// winner, and phase spans parented beneath attempt spans.
func TestTraceDistinguishesAttemptFates(t *testing.T) {
	fs := testFS()
	job := wordCountJob(fs, faultDocs, 2, false)
	job.Parallelism = 3
	job.Retry = RetryPolicy{
		MaxAttempts:      3,
		SpeculativeAfter: 5 * time.Millisecond,
	}
	job.Faults = mustInjector(t, "map:1:error@0;map:0:slow=150ms@0")
	ob := obs.New()
	job.Obs = ob
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.SpeculativeAttempts.Value() == 0 || res.Counters.TaskRetries.Value() == 0 {
		t.Fatal("schedule fired neither speculation nor a retry")
	}

	evs := ob.T().Events()
	attempts := map[obs.SpanID]obs.Event{}
	var jobEv *obs.Event
	outcomes := map[string]int{}
	specWins, specLosses := 0, 0
	for i, ev := range evs {
		switch ev.Cat {
		case obs.CatJob:
			jobEv = &evs[i]
		case obs.CatAttempt:
			attempts[ev.ID] = ev
			outcomes[ev.Outcome]++
			if ev.Speculative || (ev.Name == "map" && ev.Task == 0) {
				switch ev.Outcome {
				case obs.OutcomeWon:
					specWins++
				case obs.OutcomeLost, obs.OutcomeCanceled:
					specLosses++
				}
			}
		}
	}
	if jobEv == nil || jobEv.Outcome != "ok" {
		t.Errorf("job span = %+v, want outcome ok", jobEv)
	}
	if outcomes[obs.OutcomeFailed] == 0 {
		t.Errorf("no failed attempt span despite an injected error: %v", outcomes)
	}
	if outcomes[obs.OutcomeWon] < len(faultDocs)+job.NumReducers {
		t.Errorf("won attempts = %d, want at least one per task: %v", outcomes[obs.OutcomeWon], outcomes)
	}
	if specWins == 0 || specLosses == 0 {
		t.Errorf("straggler pair not distinguishable: %d winners, %d losers", specWins, specLosses)
	}

	// Phase spans nest under attempt spans (or under another phase span —
	// per-partition codec spans sit beneath spill) and cover the pipeline
	// stages.
	phaseIDs := map[obs.SpanID]bool{}
	for _, ev := range evs {
		if ev.Cat == obs.CatPhase {
			phaseIDs[ev.ID] = true
		}
	}
	phases := map[string]bool{}
	for _, ev := range evs {
		if ev.Cat != obs.CatPhase {
			continue
		}
		if _, ok := attempts[ev.Parent]; !ok && !phaseIDs[ev.Parent] {
			t.Errorf("phase span %q not parented under an attempt or phase", ev.Name)
		}
		phases[ev.Name] = true
	}
	for _, want := range []string{"map", "spill", "codec", "fetch", "merge", "reduce"} {
		if !phases[want] {
			t.Errorf("no %q phase span recorded (have %v)", want, phases)
		}
	}
}

// TestCalibrationFitsCalSamples: every committed attempt leaves a calibration
// sample, and a cluster.Calibration over them either fits positive bandwidths
// or returns the documented no-usable-samples error (in-process attempts
// are CPU-bound, so wall ≈ cpu leaves no I/O residual to fit) — never a
// broken config.
func TestCalibrationFitsCalSamples(t *testing.T) {
	res, _, err := runShuffleJob(t, nil, "", RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(faultDocs) + 2; len(res.CalSamples) != want {
		t.Errorf("calibration samples = %d, want %d (one per committed attempt)",
			len(res.CalSamples), want)
	}
	for i, s := range res.CalSamples {
		if s.WallSeconds <= 0 {
			t.Errorf("sample %d has no wall clock: %+v", i, s)
		}
	}
	base := clusterPaper()
	var cal cluster.Calibration
	cal.Add(res.CalSamples...)
	got, err := cal.Fit(base)
	if err != nil {
		// Legitimate for an in-memory run; the config must come back intact.
		if got.DiskMBps != base.DiskMBps || got.NetMBps != base.NetMBps {
			t.Errorf("failed calibration altered the config: %+v", got)
		}
	} else if got.DiskMBps <= 0 || got.NetMBps <= 0 {
		t.Errorf("calibrated bandwidths not positive: %+v", got)
	}
}

// TestShuffleMetricsExposition: a networked-shuffle run exposes per-node
// fetch-latency histograms and the transport counters in the Prometheus
// rendering.
func TestShuffleMetricsExposition(t *testing.T) {
	fs := testFS()
	job := wordCountJob(fs, faultDocs, 2, false)
	job.Shuffle = &ShuffleConfig{Mode: ShuffleTCP, Nodes: 2}
	ob := obs.New()
	job.Obs = ob
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.ShuffleFetches.Value() == 0 {
		t.Fatal("networked run recorded no fetches")
	}
	var sb strings.Builder
	if err := ob.R().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`scikey_shuffle_fetch_seconds_bucket{node="0",le="+Inf"}`,
		`scikey_shuffle_fetch_seconds_count{node="1"}`,
		"scikey_shuffle_fetches_total",
		`scikey_attempt_seconds_count{phase="reduce"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The per-node histogram counts sum to the fetch total.
	var histTotal int64
	for _, node := range []string{"0", "1"} {
		histTotal += ob.R().Histogram("scikey_shuffle_fetch_seconds", "", "seconds", nil,
			obs.L("node", node)).Count()
	}
	if histTotal != res.Counters.ShuffleFetches.Value() {
		t.Errorf("fetch histogram samples = %d, fetches counter = %d",
			histTotal, res.Counters.ShuffleFetches.Value())
	}
}

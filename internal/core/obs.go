package core

import (
	"scikey/internal/obs"
	"scikey/internal/predictor"
)

// predictorStatsFunc builds the codec.Transform.StatsFunc that publishes
// predictor telemetry into the observer's registry. The transform reports
// once per compressed segment (at writer Close, on the spill worker
// goroutine), so the counters accumulate across segments while the
// active-set gauge tracks the latest segment's final state. Returns nil
// when there is no observer, keeping the codec path untouched.
func predictorStatsFunc(o *obs.Observer) func(predictor.Stats) {
	if o == nil {
		return nil
	}
	r := o.R()
	active := r.Gauge("scikey_predictor_active_strides",
		"Active-set size at the end of the most recent transformed segment", "")
	bytes := r.Counter("scikey_predictor_bytes_total",
		"Bytes run through the predictive transform", "bytes")
	predicted := r.Counter("scikey_predictor_predicted_bytes_total",
		"Bytes emitted as prediction residuals", "bytes")
	evictions := r.Counter("scikey_predictor_evictions_total",
		"Strides evicted from the active set", "")
	admissions := r.Counter("scikey_predictor_admissions_total",
		"Evicted strides re-admitted to the active set", "")
	hits := r.Counter("scikey_predictor_seq_hits_total",
		"Sequence-table hits across active strides (hit ratio numerator)", "")
	checks := r.Counter("scikey_predictor_seq_checks_total",
		"Sequence-table checks across active strides (hit ratio denominator)", "")
	return func(s predictor.Stats) {
		active.Set(int64(s.ActiveStrides))
		bytes.Add(s.Bytes)
		predicted.Add(s.PredictedBytes)
		evictions.Add(s.Evictions)
		admissions.Add(s.Admissions)
		hits.Add(s.SeqHits)
		checks.Add(s.SeqChecks)
	}
}

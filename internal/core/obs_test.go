package core

import (
	"strings"
	"testing"

	"scikey/internal/cluster"
	"scikey/internal/obs"
)

// TestPredictorMetricsPublished: a run whose codec holds the transform, on
// its own or inside a block pipeline, exposes the predictor telemetry (byte
// throughput, prediction coverage, and the active-set gauge) with an
// Observer, without changing the run's byte accounting.
func TestPredictorMetricsPublished(t *testing.T) {
	for _, c := range []string{"transform+zlib", "block+transform+zlib"} {
		t.Run(c, func(t *testing.T) { checkPredictorMetrics(t, Strategy{Kind: Baseline, Codec: c}) })
	}
}

func checkPredictorMetrics(t *testing.T, strat Strategy) {
	fs, qcfg, _ := setup(t, 20)
	qcfg.OutputPath = "/out/obs-off"
	plain, err := RunQuery(fs, qcfg, strat, cluster.Paper(), false)
	if err != nil {
		t.Fatal(err)
	}

	ob := obs.New()
	qcfg.Obs = ob
	qcfg.OutputPath = "/out/obs-on"
	traced, err := RunQuery(fs, qcfg, strat, cluster.Paper(), false)
	if err != nil {
		t.Fatal(err)
	}
	if traced.MaterializedBytes != plain.MaterializedBytes {
		t.Errorf("observer changed materialized bytes: %d vs %d",
			traced.MaterializedBytes, plain.MaterializedBytes)
	}

	r := ob.R()
	bytes := r.Counter("scikey_predictor_bytes_total", "", "bytes").Value()
	if bytes == 0 {
		t.Error("predictor processed no bytes according to the registry")
	}
	predicted := r.Counter("scikey_predictor_predicted_bytes_total", "", "bytes").Value()
	if predicted <= 0 || predicted > bytes {
		t.Errorf("predicted bytes = %d of %d, want within (0, total]", predicted, bytes)
	}
	checks := r.Counter("scikey_predictor_seq_checks_total", "", "").Value()
	hits := r.Counter("scikey_predictor_seq_hits_total", "", "").Value()
	if checks == 0 || hits > checks {
		t.Errorf("sequence hit ratio broken: %d hits / %d checks", hits, checks)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE scikey_predictor_active_strides gauge",
		"scikey_predictor_bytes_total",
		"scikey_map_output_materialized_bytes_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

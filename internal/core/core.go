// Package core is the top-level API of the library: it names the paper's
// intermediate-data strategies, runs a sliding-window query under any of
// them on the simulated cluster, and reports the quantities the paper's
// evaluation tables are built from — intermediate byte volumes (decomposed
// into keys, values, and file overhead), key-split counts, and modeled
// runtimes.
//
// A strategy is a key shape times a map-output codec, two independent
// settings as in Hadoop, where map-output compression is one job switch
// beside the key format. The key shapes:
//
//   - Baseline: Hadoop as-is — one simple key per cell.
//   - Aggregation (Section IV): aggregate keys on a space-filling curve
//     with partition- and overlap-time key splitting.
//   - BoxAggregation: aggregate keys as n-dimensional boxes.
//
// Every shape takes any codec.Get name as its codec. Section III is the
// baseline shape under "transform+zlib": the predictive byte transform
// stacked on a generic codec ("a custom compression module" via Hadoop's
// pluggable codecs).
package core

import (
	"fmt"
	"strings"

	"scikey/internal/cluster"
	"scikey/internal/codec"
	"scikey/internal/hdfs"
	"scikey/internal/keys"
	"scikey/internal/mapreduce"
	"scikey/internal/scihadoop"
)

// StrategyKind enumerates the intermediate key shapes.
type StrategyKind int

const (
	// Baseline is unmodified Hadoop behaviour: one simple key per cell.
	Baseline StrategyKind = iota
	// Aggregation is Section IV: aggregate keys + key splitting.
	Aggregation
	// BoxAggregation aggregates directly in n-dimensional space with
	// (corner, size) keys — the Fig. 5 alternative, built by this
	// repository's boxagg extension.
	BoxAggregation
)

// String names the kind.
func (k StrategyKind) String() string {
	switch k {
	case Baseline:
		return "baseline"
	case Aggregation:
		return "aggregation"
	case BoxAggregation:
		return "box-aggregation"
	}
	return fmt.Sprintf("StrategyKind(%d)", int(k))
}

// Strategy selects and parameterizes an approach: a key shape and the codec
// its map output goes through.
type Strategy struct {
	Kind StrategyKind
	// Codec names the map-output codec in codec.Get's grammar,
	// [block+][transform+]{none|gzip|zlib|bzip2}; "" and "none" mean no
	// codec. Every key shape honours it. "transform+zlib" is Section III-E's
	// stack; a "block+" prefix runs the whole stack through the parallel
	// block pipeline (position-determined framing: every width yields the
	// same bytes).
	Codec string
	// Curve names the space-filling curve (Aggregation only; default
	// "zorder").
	Curve string
	// FlushCells bounds the aggregation buffer (Aggregation only).
	FlushCells int
}

// Name renders a stable label for reports: the key shape, then "+" and the
// codec when there is one. Simple keys under a codec are named by the codec
// alone, so Section III's stack reads "transform+zlib".
func (s Strategy) Name() string {
	shape := "baseline"
	switch s.Kind {
	case Aggregation:
		shape = "aggregation/" + scihadoop.QueryConfig{Curve: s.Curve}.WithDefaults().Curve
	case BoxAggregation:
		shape = "aggregation/boxes"
	}
	c := strings.ToLower(s.Codec)
	switch {
	case c == "" || c == "none":
		return shape
	case s.Kind == Baseline:
		return c
	}
	return shape + "+" + c
}

// Report is the outcome of one strategy run: exact byte accounting from the
// engine counters plus the modeled runtime.
type Report struct {
	Strategy string
	// MapOutputRecords is the intermediate pair count.
	MapOutputRecords int64
	// KeyBytes / ValueBytes decompose the serialized map output (Fig. 8's
	// "Keys" and "Values" bars).
	KeyBytes   int64
	ValueBytes int64
	// MaterializedBytes is "Map output materialized bytes" — on-disk
	// intermediate data after framing and any codec.
	MaterializedBytes int64
	// ShuffleBytes crossed the network to reducers.
	ShuffleBytes int64
	// PartitionSplits and OverlapSplits count the Section IV-B key splits.
	PartitionSplits int64
	OverlapSplits   int64
	// CombineMergedRecords / CombineEmittedRecords / CombineSavedBytes
	// describe in-node combining (QueryConfig.Combine; all zero when off):
	// records folded away, records the combined segments still carry, and
	// shuffle bytes removed versus the raw per-task segments.
	CombineMergedRecords  int64
	CombineEmittedRecords int64
	CombineSavedBytes     int64
	// FailedAttempts, TaskRetries, CorruptSegments, and RecoveredMaps
	// describe the recovery machinery's activity; all zero on a clean run.
	FailedAttempts  int64
	TaskRetries     int64
	CorruptSegments int64
	RecoveredMaps   int64
	// ShuffleFetches through ShuffleBreakerTrips describe the networked
	// shuffle transport's work; all zero under the in-memory shuffle.
	ShuffleFetches          int64
	ShuffleFetchRetries     int64
	ShuffleFetchesResumed   int64
	ShuffleFetchWastedBytes int64
	ShuffleBreakerTrips     int64
	// MapPhaseCached reports that the run restored its map output from
	// QueryConfig.MapCache instead of executing map attempts.
	MapPhaseCached bool
	// Estimate is the modeled runtime on the configured cluster, including
	// slot time wasted on discarded attempts.
	Estimate cluster.JobEstimate
	// Output holds the decoded per-cell results when requested.
	Output scihadoop.CellResults
}

// JobPlan is a fully built query job plus the machinery to decode its
// output: what RunQuery executes, and what a cluster worker process
// rebuilds from the job spec so its attempts produce the coordinator's
// exact bytes.
type JobPlan struct {
	Job    *mapreduce.Job
	Codec  *keys.Codec
	Decode func(*mapreduce.Result) (scihadoop.CellResults, error)
}

// ValidateQuery checks a query configuration against a strategy, its codec
// name included, without building a job. BuildJob calls it first, so every
// execution path — the one-shot CLI, the resident query service, and a
// coordinator rebuilding a job from a wire spec — rejects a bad
// configuration with the same error text. Front-ends wanting to fail before
// touching datasets or daemons call it directly.
func ValidateQuery(qcfg scihadoop.QueryConfig, strat Strategy) error {
	_, err := validate(qcfg, strat)
	return err
}

// validate is ValidateQuery returning the parsed map-output codec (nil for
// no codec), which BuildJob builds with. A transform in the codec, on its
// own or inside a block pipeline, reports to the query's observer.
func validate(qcfg scihadoop.QueryConfig, strat Strategy) (codec.Codec, error) {
	if qcfg.NumSplits < 0 {
		return nil, fmt.Errorf("core: NumSplits must be >= 0, got %d", qcfg.NumSplits)
	}
	if qcfg.NumReducers < 0 {
		return nil, fmt.Errorf("core: NumReducers must be >= 0, got %d", qcfg.NumReducers)
	}
	if qcfg.Radius < 0 {
		return nil, fmt.Errorf("core: Radius must be >= 0, got %d", qcfg.Radius)
	}
	if qcfg.CombineNodes < 0 {
		return nil, fmt.Errorf("core: CombineNodes must be >= 0, got %d", qcfg.CombineNodes)
	}
	if qcfg.CombineNodes > 0 && !qcfg.Combine {
		return nil, fmt.Errorf("core: CombineNodes is set but combining is off")
	}
	if qcfg.Combine {
		// Fail fast with the operator's own diagnosis (holistic operators
		// have no monoid) before any dataset machinery is touched.
		if _, err := scihadoop.CombinerFor(qcfg.Op); err != nil {
			return nil, err
		}
	}
	if strat.Codec == "" || strings.EqualFold(strat.Codec, "none") {
		return nil, nil
	}
	mc, err := codec.Get(strat.Codec)
	if err != nil {
		return nil, fmt.Errorf("core: unknown strategy codec %q: %w", strat.Codec, err)
	}
	inner := mc
	if b, ok := mc.(*codec.Block); ok {
		inner = b.Inner
	}
	if t, ok := inner.(*codec.Transform); ok {
		t.StatsFunc = predictorStatsFunc(qcfg.Obs)
	}
	return mc, nil
}

// BuildJob constructs the query job for a strategy without running it.
func BuildJob(fs *hdfs.FileSystem, qcfg scihadoop.QueryConfig, strat Strategy) (*JobPlan, error) {
	mc, err := validate(qcfg, strat)
	if err != nil {
		return nil, err
	}
	if mc != nil {
		qcfg.MapOutputCodec = mc
	}
	switch strat.Kind {
	case Baseline:
		job, kc, err := scihadoop.SimpleKeyJob(fs, qcfg)
		if err != nil {
			return nil, err
		}
		return &JobPlan{Job: job, Codec: kc, Decode: func(r *mapreduce.Result) (scihadoop.CellResults, error) {
			return scihadoop.ReadSimpleOutput(fs, r, kc)
		}}, nil
	case Aggregation:
		if strat.Curve != "" {
			qcfg.Curve = strat.Curve
		}
		if strat.FlushCells > 0 {
			qcfg.FlushCells = strat.FlushCells
		}
		job, m, err := scihadoop.AggKeyJob(fs, qcfg)
		if err != nil {
			return nil, err
		}
		kc := outputCodec(qcfg)
		return &JobPlan{Job: job, Codec: kc, Decode: func(r *mapreduce.Result) (scihadoop.CellResults, error) {
			return scihadoop.ReadAggOutput(fs, r, kc, m)
		}}, nil
	case BoxAggregation:
		if strat.FlushCells > 0 {
			qcfg.FlushCells = strat.FlushCells
		}
		job, err := scihadoop.BoxKeyJob(fs, qcfg)
		if err != nil {
			return nil, err
		}
		kc := outputCodec(qcfg)
		return &JobPlan{Job: job, Codec: kc, Decode: func(r *mapreduce.Result) (scihadoop.CellResults, error) {
			return scihadoop.ReadBoxOutput(fs, r, kc)
		}}, nil
	default:
		return nil, fmt.Errorf("core: unknown strategy kind %v", strat.Kind)
	}
}

// RunQuery executes the query under the strategy and gathers a Report.
// When decodeOutput is false the (possibly large) output map stays nil.
func RunQuery(fs *hdfs.FileSystem, qcfg scihadoop.QueryConfig, strat Strategy, clus cluster.Config, decodeOutput bool) (*Report, error) {
	rep, _, err := RunQueryResult(fs, qcfg, strat, clus, decodeOutput)
	return rep, err
}

// RunQueryResult is RunQuery plus the raw engine Result, for callers that
// need the output paths or calibration samples — the query service hashes
// output files and re-fits its cost model from them.
func RunQueryResult(fs *hdfs.FileSystem, qcfg scihadoop.QueryConfig, strat Strategy, clus cluster.Config, decodeOutput bool) (*Report, *mapreduce.Result, error) {
	plan, err := BuildJob(fs, qcfg, strat)
	if err != nil {
		return nil, nil, err
	}

	res, err := mapreduce.Run(plan.Job)
	if err != nil {
		return nil, nil, err
	}
	c := res.Counters
	rep := &Report{
		Strategy:                strat.Name(),
		MapOutputRecords:        c.MapOutputRecords.Value(),
		KeyBytes:                c.MapOutputKeyBytes.Value(),
		ValueBytes:              c.MapOutputValueBytes.Value(),
		MaterializedBytes:       c.MapOutputMaterializedBytes.Value(),
		ShuffleBytes:            c.ReduceShuffleBytes.Value(),
		PartitionSplits:         c.PartitionKeySplits.Value(),
		OverlapSplits:           c.OverlapKeySplits.Value(),
		CombineMergedRecords:    c.CombineMergedRecords.Value(),
		CombineEmittedRecords:   c.CombineEmittedRecords.Value(),
		CombineSavedBytes:       c.CombineSavedBytes.Value(),
		FailedAttempts:          c.MapAttemptsFailed.Value() + c.ReduceAttemptsFailed.Value(),
		TaskRetries:             c.TaskRetries.Value(),
		CorruptSegments:         c.CorruptSegmentsDetected.Value(),
		RecoveredMaps:           c.MapTasksRecovered.Value(),
		ShuffleFetches:          c.ShuffleFetches.Value(),
		ShuffleFetchRetries:     c.ShuffleFetchRetries.Value(),
		ShuffleFetchesResumed:   c.ShuffleFetchesResumed.Value(),
		ShuffleFetchWastedBytes: c.ShuffleFetchWastedBytes.Value(),
		ShuffleBreakerTrips:     c.ShuffleBreakerTrips.Value(),
		MapPhaseCached:          res.MapPhaseCached,
		Estimate:                res.Estimate(clus),
	}
	if decodeOutput {
		out, derr := plan.Decode(res)
		if derr != nil {
			return nil, nil, derr
		}
		rep.Output = out
	}
	return rep, res, nil
}

// outputCodec builds the key codec matching a query's output encoding.
func outputCodec(qcfg scihadoop.QueryConfig) *keys.Codec {
	return &keys.Codec{Rank: qcfg.DS.Extent.Rank(), Mode: qcfg.WithDefaults().KeyMode}
}

// Reduction returns the fractional decrease of this report's materialized
// bytes versus a baseline report (0.778 means "reduced by 77.8%", the
// paper's Section III-E headline).
func (r *Report) Reduction(baseline *Report) float64 {
	if baseline.MaterializedBytes == 0 {
		return 0
	}
	return 1 - float64(r.MaterializedBytes)/float64(baseline.MaterializedBytes)
}

// RuntimeDelta returns the relative modeled-runtime change versus baseline:
// +1.06 means 106% slower (Section III-E), -0.285 means 28.5% faster
// (Section IV-D).
func (r *Report) RuntimeDelta(baseline *Report) float64 {
	b := baseline.Estimate.Total()
	if b == 0 {
		return 0
	}
	return r.Estimate.Total()/b - 1
}

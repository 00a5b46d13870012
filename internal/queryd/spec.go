// Package queryd is the resident multi-tenant query service: a long-lived
// daemon that accepts sliding-window query specs, prices them with the
// calibrated cluster cost model before admission, bounds concurrent work
// with a job queue, and reuses published map output across identical
// queries through a shared segment cache over a pluggable store.Store —
// repeated queries over a hot (dataset, split, transform, codec) key skip
// the map phase entirely while returning byte-identical results.
package queryd

import (
	"fmt"
	"strings"

	"scikey/internal/core"
	"scikey/internal/faults"
	"scikey/internal/hdfs"
	"scikey/internal/scihadoop"
)

// QuerySpec is the wire description of one query — the same JSON shape the
// cluster coordinator pushes to workers, extended with the submitting
// tenant. It carries exactly the inputs needed to rebuild the job
// deterministically: dataset generation is a pure function of Side, so
// every process (one-shot CLI, service executor, cluster worker) that sets
// up the same spec reads byte-identical input and produces byte-identical
// output.
type QuerySpec struct {
	Side     int    `json:"side"`
	Strategy string `json:"strategy"`
	Codec    string `json:"codec,omitempty"`
	// CodecWorkers sets the block+ codec's pipeline width. Any width
	// produces the same bytes (position-determined framing), so it shapes
	// wall-clock only — and is excluded from the cache key for the same
	// reason.
	CodecWorkers int    `json:"codec_workers,omitempty"`
	Curve        string `json:"curve,omitempty"`
	Flush        int    `json:"flush,omitempty"`
	Op           string `json:"op"`
	// Combine/CombineNodes enable in-node combining. Both travel in the
	// spec so every process builds the identical job.
	Combine      bool `json:"combine,omitempty"`
	CombineNodes int  `json:"combine_nodes,omitempty"`
	Radius       int  `json:"radius"`
	Splits       int  `json:"splits"`
	Reducers     int  `json:"reducers"`
	// Faults is the full fault schedule string. A spec with faults is never
	// cached (fault schedules and cached output don't mix) and is rejected
	// by the service.
	Faults string `json:"faults,omitempty"`
	// Tenant names the submitting tenant for quota accounting. Empty means
	// the default tenant.
	Tenant string `json:"tenant,omitempty"`
}

// ParseStrategy maps the CLI/wire spelling of a strategy to core's terms.
// Every front end parses the same spelling through here, so the one-shot
// CLI, the service, and cluster workers cannot drift.
func ParseStrategy(name, codecName, curve string, flush int) (core.Strategy, error) {
	switch name {
	case "baseline":
		return core.Strategy{Kind: core.Baseline}, nil
	case "transform":
		return core.Strategy{Kind: core.ByteTransform, Codec: codecName}, nil
	case "aggregation":
		return core.Strategy{Kind: core.Aggregation, Curve: curve, FlushCells: flush}, nil
	case "boxes":
		return core.Strategy{Kind: core.BoxAggregation, FlushCells: flush}, nil
	default:
		return core.Strategy{}, fmt.Errorf("unknown strategy %q (want baseline, transform, aggregation, or boxes)", name)
	}
}

// ParsedStrategy resolves the spec's strategy fields.
func (s QuerySpec) ParsedStrategy() (core.Strategy, error) {
	return ParseStrategy(s.Strategy, s.Codec, s.Curve, s.Flush)
}

// queryConfig builds the spec's QueryConfig shape without any dataset
// machinery — what validation needs.
func (s QuerySpec) queryConfig() (scihadoop.QueryConfig, error) {
	qcfg := scihadoop.QueryConfig{
		NumSplits:    s.Splits,
		NumReducers:  s.Reducers,
		Radius:       s.Radius,
		CodecWorkers: s.CodecWorkers,
		Combine:      s.Combine,
		CombineNodes: s.CombineNodes,
	}
	switch s.Op {
	case "median", "":
		qcfg.Op = scihadoop.Median
	case "max":
		qcfg.Op = scihadoop.Max
	default:
		return qcfg, fmt.Errorf("unknown op %q (want median or max)", s.Op)
	}
	return qcfg, nil
}

// Validate rejects a spec every execution path would reject, with the same
// error text core.BuildJob produces — the contract that keeps one-shot
// early validation and wire-spec validation identical.
func (s QuerySpec) Validate() error {
	strat, err := s.ParsedStrategy()
	if err != nil {
		return err
	}
	if s.Side <= 0 {
		return fmt.Errorf("queryd: side must be > 0, got %d", s.Side)
	}
	qcfg, err := s.queryConfig()
	if err != nil {
		return err
	}
	if s.Faults != "" {
		if _, err := faults.NewFromSpec(s.Faults); err != nil {
			return err
		}
	}
	return core.ValidateQuery(qcfg, strat)
}

// Setup rebuilds the filesystem, query config, and strategy the spec names.
// Every execution path goes through here, so no two sides can drift.
func (s QuerySpec) Setup() (*hdfs.FileSystem, scihadoop.QueryConfig, core.Strategy, error) {
	strat, err := s.ParsedStrategy()
	if err != nil {
		return nil, scihadoop.QueryConfig{}, core.Strategy{}, err
	}
	fs, qcfg, err := scihadoop.MedianSetup(s.Side)
	if err != nil {
		return nil, scihadoop.QueryConfig{}, core.Strategy{}, err
	}
	shape, err := s.queryConfig()
	if err != nil {
		return nil, scihadoop.QueryConfig{}, core.Strategy{}, err
	}
	qcfg.NumSplits = shape.NumSplits
	qcfg.NumReducers = shape.NumReducers
	qcfg.Radius = shape.Radius
	qcfg.CodecWorkers = shape.CodecWorkers
	qcfg.Op = shape.Op
	qcfg.Combine = shape.Combine
	qcfg.CombineNodes = shape.CombineNodes
	qcfg.OutputPath = "/out/scijob"
	if s.Faults != "" {
		inj, err := faults.NewFromSpec(s.Faults)
		if err != nil {
			return nil, scihadoop.QueryConfig{}, core.Strategy{}, err
		}
		qcfg.Faults = inj
	}
	return fs, qcfg, strat, nil
}

// CacheKey derives the spec's map-output cache key: a canonical string over
// every input that shapes published map-output bytes — dataset (side),
// strategy+codec, operator, curve, flush threshold, window radius, split
// and reducer counts, and the in-node combining configuration. It
// deliberately EXCLUDES CodecWorkers (block+ framing is
// position-determined: every width yields identical bytes), Tenant (cache
// entries are shared across tenants — same bytes either way), and returns
// "" for a spec with faults, disabling caching (fault schedules must
// execute real attempts).
func (s QuerySpec) CacheKey() string {
	if s.Faults != "" {
		return ""
	}
	strat, err := s.ParsedStrategy()
	if err != nil {
		return ""
	}
	op := s.Op
	if op == "" {
		op = "median"
	}
	// Normalize the defaults BuildJob applies, so "transform" and
	// "transform -codec zlib" (identical bytes) share a key.
	cdc := strings.ToLower(strat.Codec)
	if strat.Kind == core.ByteTransform && cdc == "" {
		cdc = "zlib"
	}
	return fmt.Sprintf("v1|side=%d|strat=%s|codec=%s|op=%s|curve=%s|flush=%d|radius=%d|splits=%d|reducers=%d|combine=%t|combine-nodes=%d",
		s.Side, s.Strategy, cdc, op, strat.Curve,
		s.Flush, s.Radius, s.Splits, s.Reducers, s.Combine, s.CombineNodes)
}

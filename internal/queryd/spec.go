// Package queryd is the resident multi-tenant query service: a long-lived
// daemon that accepts sliding-window query specs, prices them with the
// calibrated cluster cost model before admission, bounds concurrent work
// with a job queue, and reuses published map output across identical
// queries through a shared segment cache over a store.Store — repeated
// queries over a hot (dataset, split, transform, codec) key skip the map
// phase entirely while returning byte-identical results. Identical queries
// serialize on a per-key flight lock, so racers over a cold or corrupt
// entry run one map phase between them.
package queryd

import (
	"cmp"
	"encoding/json"
	"fmt"
	"strings"

	"scikey/internal/clusterd"
	"scikey/internal/codec"
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
	Curve    string `json:"curve,omitempty"`
	Flush    int    `json:"flush,omitempty"`
	Op       string `json:"op"`
	// Combine/CombineNodes enable in-node combining. Both travel in the
	// spec so every process builds the identical job.
	Combine      bool `json:"combine,omitempty"`
	CombineNodes int  `json:"combine_nodes,omitempty"`
	Radius       int  `json:"radius"`
	Splits       int  `json:"splits"`
	Reducers     int  `json:"reducers"`
	// Faults is the full fault schedule string. It is no part of the cache
	// key: a recovered run publishes the bytes a clean one does, and
	// restored output a reducer finds corrupt or lost runs as a miss. The
	// resident service refuses it, since a slow, stall, hang or down rule
	// would hold one of its executors for as long as the rule says.
	Faults string `json:"faults,omitempty"`
	// Tenant names the submitting tenant for quota accounting. Empty means
	// the default tenant.
	Tenant string `json:"tenant,omitempty"`
}

// ParsedStrategy maps the spec's spelling of a strategy to core's terms,
// keeping only the fields that strategy reads (a flush threshold on a
// baseline spec is dropped here, so it cannot shape a cache key either).
// "transform" is Section III's spelling: simple keys under codec
// transform+C, C being the spec's codec ("" meaning zlib) with any block+
// moved to the front of the stack.
func (s QuerySpec) ParsedStrategy() (core.Strategy, error) {
	switch s.Strategy {
	case "baseline":
		return core.Strategy{Kind: core.Baseline, Codec: s.Codec}, nil
	case "transform":
		c, block := strings.CutPrefix(strings.ToLower(cmp.Or(s.Codec, "zlib")), "block+")
		c = "transform+" + c
		if _, err := codec.Get(c); err != nil {
			// Rejected here, where the codec as typed is still known: core
			// would name the stack built from it.
			return core.Strategy{}, fmt.Errorf("unknown strategy codec %q for strategy transform (want %s, optionally prefixed block+)",
				s.Codec, strings.Join(transformInner(), ", "))
		}
		if block {
			c = "block+" + c
		}
		return core.Strategy{Kind: core.Baseline, Codec: c}, nil
	case "aggregation":
		return core.Strategy{Kind: core.Aggregation, Codec: s.Codec, Curve: s.Curve, FlushCells: s.Flush}, nil
	case "boxes":
		return core.Strategy{Kind: core.BoxAggregation, Codec: s.Codec, FlushCells: s.Flush}, nil
	default:
		return core.Strategy{}, fmt.Errorf("unknown strategy %q (want baseline, transform, aggregation, or boxes)", s.Strategy)
	}
}

// transformInner lists the codecs codec.Get stacks under a transform.
func transformInner() []string {
	var inner []string
	for _, n := range codec.Names() {
		if c, ok := strings.CutPrefix(n, "transform+"); ok {
			inner = append(inner, c)
		}
	}
	return inner
}

// queryConfig is the one spec→config mapping: the strategy and the query
// configuration the spec names, without any dataset machinery. Validate,
// Setup, CacheKey and the service's cost prior all start here.
func (s QuerySpec) queryConfig() (scihadoop.QueryConfig, core.Strategy, error) {
	qcfg := scihadoop.QueryConfig{
		NumSplits:    s.Splits,
		NumReducers:  s.Reducers,
		Radius:       s.Radius,
		Combine:      s.Combine,
		CombineNodes: s.CombineNodes,
		OutputPath:   "/out/scijob",
	}
	strat, err := s.ParsedStrategy()
	if err != nil {
		return qcfg, strat, err
	}
	switch s.Op {
	case "median", "":
		qcfg.Op = scihadoop.Median
	case "max":
		qcfg.Op = scihadoop.Max
	default:
		return qcfg, strat, fmt.Errorf("unknown op %q (want median or max)", s.Op)
	}
	qcfg.Faults, err = faults.NewFromSpec(s.Faults)
	return qcfg, strat, err
}

// Validate rejects a spec every execution path would reject, with the same
// error text core.BuildJob produces — the contract that keeps one-shot
// early validation and wire-spec validation identical.
func (s QuerySpec) Validate() error {
	qcfg, strat, err := s.queryConfig()
	if err != nil {
		return err
	}
	if s.Side <= 0 {
		return fmt.Errorf("queryd: side must be > 0, got %d", s.Side)
	}
	return core.ValidateQuery(qcfg, strat)
}

// Setup rebuilds the filesystem, query config, and strategy the spec names.
// Every execution path goes through here, so no two sides can drift.
func (s QuerySpec) Setup() (*hdfs.FileSystem, scihadoop.QueryConfig, core.Strategy, error) {
	qcfg, strat, err := s.queryConfig()
	if err != nil {
		return nil, scihadoop.QueryConfig{}, core.Strategy{}, err
	}
	fs, input, err := scihadoop.MedianSetup(s.Side)
	if err != nil {
		return nil, scihadoop.QueryConfig{}, core.Strategy{}, err
	}
	qcfg.DS = input.DS
	return fs, qcfg, strat, nil
}

// CacheKey derives the spec's map-output cache key: a canonical string over
// every input that shapes published map-output bytes — dataset (side),
// key shape with its codec and curve, flush threshold, operator, window
// radius, split and reducer counts, and the in-node combining
// configuration — each read from the defaulted config and the parsed
// strategy, so specs that build the same job (an omitted radius and radius
// 1, "transform" and "baseline -codec transform+zlib", a flush threshold
// on a strategy that ignores it) share a key. It deliberately EXCLUDES
// Tenant (cache entries are shared across tenants — same bytes either way)
// and Faults (see its doc).
func (s QuerySpec) CacheKey() string {
	qcfg, strat, err := s.queryConfig()
	if err != nil {
		return ""
	}
	d := qcfg.WithDefaults()
	return fmt.Sprintf("v2|side=%d|strat=%s|flush=%d|op=%s|radius=%d|splits=%d|reducers=%d|combine=%t|combine-nodes=%d",
		s.Side, strings.ToLower(strat.Name()), strat.FlushCells, d.Op,
		d.Radius, d.NumSplits, d.NumReducers, d.Combine, d.CombineNodes)
}

// BuildRunner rebuilds the job a coordinator's wire spec names (JSON, then
// Setup, then core.BuildJob) as the runner a cluster worker executes its
// granted attempts with. scijob -worker builds its runner here.
func BuildRunner(raw []byte) (clusterd.Runner, error) {
	var spec QuerySpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("decoding job spec: %w", err)
	}
	fs, qcfg, strat, err := spec.Setup()
	if err != nil {
		return nil, err
	}
	plan, err := core.BuildJob(fs, qcfg, strat)
	if err != nil {
		return nil, err
	}
	return &clusterd.JobRunner{Job: plan.Job}, nil
}

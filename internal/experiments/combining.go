package experiments

// E16 measures what in-node combining buys: the shuffle-byte reduction of
// folding duplicate intermediate keys per node group before the shuffle, and
// — just as important for the paper's argument — what it cannot buy. The
// paper's sliding median is holistic: no monoid can merge partial windows,
// so combining is refused at build time and only key/value encoding (the
// paper's Sections III-IV) can shrink the median query's intermediate data.
// The distributive max query runs the same dataset under every key geometry
// with combining off and on, proving the output bytes identical and
// recording the shuffle reduction.

import (
	"fmt"

	"scikey/internal/mapreduce"
	"scikey/internal/obs"
	"scikey/internal/scihadoop"
)

// E16Row compares one max workload with in-node combining off and on.
type E16Row struct {
	// Workload is "max/simple", "max/agg", or "max/boxes".
	Workload string
	// ShuffleBytesOff / ShuffleBytesOn are segment bytes fetched by
	// reducers without and with combining.
	ShuffleBytesOff int64
	ShuffleBytesOn  int64
	// ReductionPct is the shuffle-byte reduction from combining.
	ReductionPct float64
	// MergedRecords counts records folded away; SavedBytes the segment
	// bytes removed (the engine's scikey_combine_* counters).
	MergedRecords int64
	SavedBytes    int64
	// OutputsIdentical: the combined run's output files are byte-identical
	// to the uncombined run's.
	OutputsIdentical bool
}

// E16Result is the in-node combining experiment.
type E16Result struct {
	// MedianRefusal is the build-time error for the paper's median query
	// with combining requested: holistic operators have no value monoid,
	// so their intermediate data is irreducible by combining — the very
	// premise of the paper's encoding-based attack.
	MedianRefusal string
	// Rows are the distributive max workloads, one per key geometry.
	Rows []E16Row
}

// E16InNodeCombining runs the combining experiment on a side×side dataset.
// All map tasks share one combine buffer (CombineNodes=1): the runs are
// in-process, so the single-node grouping is the honest placement, and it
// lets the simple-key workload — whose per-task duplicates the map-side
// combiner already folds — meet its cross-task halo duplicates.
func E16InNodeCombining(side int, ob *obs.Observer) (E16Result, error) {
	fs, qcfg, err := scihadoop.MedianSetup(side)
	if err != nil {
		return E16Result{}, err
	}
	qcfg.Obs = ob

	var out E16Result
	medCfg := qcfg
	medCfg.Op = scihadoop.Median
	medCfg.Combine = true
	if _, _, err := scihadoop.SimpleKeyJob(fs, medCfg); err == nil {
		return E16Result{}, fmt.Errorf("e16: median accepted combining; holistic refusal is broken")
	} else {
		out.MedianRefusal = err.Error()
	}

	build := func(cfg scihadoop.QueryConfig, kind string) (*mapreduce.Job, error) {
		switch kind {
		case "simple":
			job, _, err := scihadoop.SimpleKeyJob(fs, cfg)
			return job, err
		case "agg":
			job, _, err := scihadoop.AggKeyJob(fs, cfg)
			return job, err
		default:
			job, err := scihadoop.BoxKeyJob(fs, cfg)
			return job, err
		}
	}

	for _, kind := range []string{"simple", "agg", "boxes"} {
		run := func(combine bool) (*mapreduce.Counters, string, error) {
			cfg := qcfg
			cfg.Op = scihadoop.Max
			cfg.Combine = combine
			cfg.CombineNodes = 1
			if !combine {
				cfg.CombineNodes = 0
			}
			cfg.OutputPath = fmt.Sprintf("/out/e16-%s-%v", kind, combine)
			job, err := build(cfg, kind)
			if err != nil {
				return nil, "", err
			}
			res, err := mapreduce.Run(job)
			if err != nil {
				return nil, "", err
			}
			return res.Counters, cfg.OutputPath, nil
		}
		off, offPath, err := run(false)
		if err != nil {
			return E16Result{}, fmt.Errorf("e16 %s uncombined: %w", kind, err)
		}
		on, onPath, err := run(true)
		if err != nil {
			return E16Result{}, fmt.Errorf("e16 %s combined: %w", kind, err)
		}
		identical, err := outputsEqual(fs, offPath, fs, onPath)
		if err != nil {
			return E16Result{}, err
		}
		so, sn := off.ReduceShuffleBytes.Value(), on.ReduceShuffleBytes.Value()
		row := E16Row{
			Workload:         "max/" + kind,
			ShuffleBytesOff:  so,
			ShuffleBytesOn:   sn,
			MergedRecords:    on.CombineMergedRecords.Value(),
			SavedBytes:       on.CombineSavedBytes.Value(),
			OutputsIdentical: identical,
		}
		if so > 0 {
			row.ReductionPct = 100 * float64(so-sn) / float64(so)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"scikey/internal/cluster"
	"scikey/internal/core"
	"scikey/internal/faults"
	"scikey/internal/hdfs"
	"scikey/internal/mapreduce"
	"scikey/internal/scihadoop"
)

// E12Schedule is the default chaos schedule for E12: kill map task 1's first
// attempt and silently corrupt map task 2's partition-0 output segment.
const E12Schedule = "seed=11;map:1:error@0;segment:2.0:corrupt@0"

// E12Result compares the sliding-median query run fault-free against the
// same query under a deterministic fault schedule with recovery enabled.
type E12Result struct {
	Clean  *core.Report
	Faulty *core.Report
	// OutputsIdentical is true when every output part file of the faulty run
	// is byte-for-byte equal to the fault-free run's.
	OutputsIdentical bool
	// CountersIdentical is true when the payload byte counters (notably
	// "Map output materialized bytes") match the fault-free run.
	CountersIdentical bool
	// RuntimeOverheadPct is the modeled runtime increase from wasted
	// attempts (the recovery tax on the paper's cluster).
	RuntimeOverheadPct float64
}

// E12FaultRecovery is the robustness experiment: a seeded fault schedule
// kills one map attempt and corrupts one materialized IFile segment, and the
// attempt scheduler plus corruption-safe shuffle must reconstruct the exact
// fault-free result — same output bytes, same payload counters — paying only
// wasted slot time.
func E12FaultRecovery(side int) (E12Result, error) {
	clus := cluster.Paper()
	run := func(outPath, spec string) (*core.Report, *hdfs.FileSystem, error) {
		fs, qcfg, err := scihadoop.MedianSetup(side)
		if err != nil {
			return nil, nil, err
		}
		qcfg.OutputPath = outPath
		if spec != "" {
			inj, err := faults.NewFromSpec(spec)
			if err != nil {
				return nil, nil, err
			}
			qcfg.Faults = inj
			qcfg.Retry = mapreduce.RetryPolicy{MaxAttempts: 3, Seed: 11}
		}
		rep, err := core.RunQuery(fs, qcfg, core.Strategy{Kind: core.Baseline}, clus, false)
		return rep, fs, err
	}

	clean, cleanFS, err := run("/out/clean", "")
	if err != nil {
		return E12Result{}, err
	}
	faulty, faultyFS, err := run("/out/faulty", E12Schedule)
	if err != nil {
		return E12Result{}, fmt.Errorf("faulty run did not recover: %w", err)
	}
	if faulty.TaskRetries == 0 || faulty.CorruptSegments == 0 {
		return E12Result{}, fmt.Errorf("schedule %q fired no recoverable faults", E12Schedule)
	}

	identical, err := outputsEqual(cleanFS, "/out/clean/", faultyFS, "/out/faulty/")
	if err != nil {
		return E12Result{}, err
	}
	return E12Result{
		Clean:            clean,
		Faulty:           faulty,
		OutputsIdentical: identical,
		CountersIdentical: clean.MaterializedBytes == faulty.MaterializedBytes &&
			clean.ShuffleBytes == faulty.ShuffleBytes &&
			clean.MapOutputRecords == faulty.MapOutputRecords,
		RuntimeOverheadPct: 100 * faulty.RuntimeDelta(clean),
	}, nil
}

// outputsEqual compares the part files under two output prefixes byte for
// byte.
func outputsEqual(afs *hdfs.FileSystem, aPrefix string, bfs *hdfs.FileSystem, bPrefix string) (bool, error) {
	parts := func(fs *hdfs.FileSystem, prefix string) map[string][]byte {
		out := make(map[string][]byte)
		for _, p := range fs.List() {
			if strings.HasPrefix(p, prefix) {
				data, err := fs.ReadAll(p)
				if err == nil {
					out[strings.TrimPrefix(p, prefix)] = data
				}
			}
		}
		return out
	}
	a, b := parts(afs, aPrefix), parts(bfs, bPrefix)
	if len(a) == 0 || len(a) != len(b) {
		return false, fmt.Errorf("experiments: output file counts differ: %d vs %d", len(a), len(b))
	}
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			return false, nil
		}
	}
	return true, nil
}

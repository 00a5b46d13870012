package experiments

import (
	"fmt"
	"time"

	"scikey/internal/cluster"
	"scikey/internal/core"
	"scikey/internal/faults"
	"scikey/internal/hdfs"
	"scikey/internal/mapreduce"
	"scikey/internal/obs"
	"scikey/internal/scihadoop"
)

// E13Schedules are the chaos-soak fault schedules: each exercises a
// different networked-shuffle failure mode, and every run must still produce
// output byte-identical to the fault-free in-memory shuffle.
var E13Schedules = []struct {
	Name     string
	Schedule string
}{
	// Every segment's first fetch attempt is cut mid-chunk: the retry must
	// resume from the verified prefix.
	{"cut-all", "seed=13;net:*:cut@0"},
	// Probabilistic mixture of refused connections and short server stalls.
	{"flaky", "seed=13;net:*:refuse@0%0.5;net:*:stall=40ms@1%0.3"},
	// Truncated streams plus in-flight corruption caught by chunk CRCs.
	{"dirty", "seed=13;net:*:truncate@0%0.5;net:*:corrupt@1%0.3"},
	// A whole node vanishes for a window: fetch budgets exhaust, the engine
	// declares the map output lost and re-executes the producer.
	{"node-outage", "seed=13;node:1:down=60ms"},
}

// E13Run is one chaos schedule's outcome.
type E13Run struct {
	Name     string
	Schedule string
	Report   *core.Report
	// OutputsIdentical is true when every output part file matches the
	// fault-free in-memory run byte for byte.
	OutputsIdentical bool
}

// E13Result is the chaos soak: the clean in-memory baseline plus one run per
// schedule over the networked shuffle.
type E13Result struct {
	Clean *core.Report
	Runs  []E13Run
}

// E13ChaosSoak runs the sliding-median query over the networked shuffle
// (loopback TCP) under each chaos schedule and checks the robustness invariant:
// with a sufficient retry budget, deadlines + retry/backoff + partial-fetch
// resume + producer re-execution reconstruct the exact fault-free result, so
// chaos shows up only in the transport and waste counters — never in the
// output bytes or payload counters.
//
// When ob is non-nil every run (clean baseline and each chaos schedule)
// traces into it, so the resulting timeline shows retried, speculative, and
// faulted attempt spans side by side with the clean run; nil disables
// observability.
func E13ChaosSoak(side int, ob *obs.Observer) (E13Result, error) {
	clus := cluster.Paper()
	run := func(outPath, schedule string, sc *mapreduce.ShuffleConfig) (*core.Report, *hdfs.FileSystem, error) {
		fs, qcfg, err := scihadoop.MedianSetup(side)
		if err != nil {
			return nil, nil, err
		}
		qcfg.OutputPath = outPath
		qcfg.Shuffle = sc
		qcfg.Obs = ob
		if schedule != "" {
			inj, err := faults.NewFromSpec(schedule)
			if err != nil {
				return nil, nil, err
			}
			qcfg.Faults = inj
			qcfg.Retry = mapreduce.RetryPolicy{
				MaxAttempts: 8,
				Backoff:     5 * time.Millisecond,
				BackoffMax:  100 * time.Millisecond,
				Seed:        13,
			}
		}
		rep, err := core.RunQuery(fs, qcfg, core.Strategy{Kind: core.Baseline}, clus, false)
		return rep, fs, err
	}

	clean, cleanFS, err := run("/out/clean", "", nil)
	if err != nil {
		return E13Result{}, err
	}

	res := E13Result{Clean: clean}
	for _, s := range E13Schedules {
		sc := &mapreduce.ShuffleConfig{
			Mode: mapreduce.ShuffleTCP,
			// Small chunks make mid-stream faults land inside transfers, so
			// resume-from-verified-offset actually carries bytes forward.
			ChunkBytes:    1024,
			FetchAttempts: 3,
		}
		out := "/out/chaos-" + s.Name
		rep, fs, err := run(out, s.Schedule, sc)
		if err != nil {
			return E13Result{}, fmt.Errorf("chaos schedule %q not survived: %w", s.Name, err)
		}
		if rep.ShuffleFetchRetries == 0 && rep.RecoveredMaps == 0 {
			return E13Result{}, fmt.Errorf("chaos schedule %q fired no faults", s.Name)
		}
		identical, err := outputsEqual(cleanFS, "/out/clean/", fs, out+"/")
		if err != nil {
			return E13Result{}, err
		}
		res.Runs = append(res.Runs, E13Run{
			Name:             s.Name,
			Schedule:         s.Schedule,
			Report:           rep,
			OutputsIdentical: identical,
		})
	}
	return res, nil
}

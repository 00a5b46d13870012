// Command expdriver reruns the paper's experiments and prints
// paper-vs-measured tables. Select experiments with -run (comma-separated
// ids: e1-e9 for the paper's tables and figures, e10-e13 and a5-a8 for the
// extension experiments, a1-a4 for the ablations, or "all") and control
// the problem size with -scale:
//
//	expdriver -run all -scale full     # the paper's sizes (slow)
//	expdriver -run e3,e8               # quick subset at default scale
//	expdriver -run e13 -trace-out chaos.json   # trace the chaos soak
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"scikey/internal/core"
	"scikey/internal/experiments"
	"scikey/internal/obs"
	"scikey/internal/stats"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiment ids or 'all'")
	scale := flag.String("scale", "quick", "quick | full (full uses the paper's input sizes)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON of the instrumented experiments (e4, e10, e13) to this file (empty = off)")
	flag.Parse()

	// A nil observer keeps every experiment on its untraced path; the
	// instrumented ones (e4, e10, e13) accept it either way.
	var ob *obs.Observer
	if *traceOut != "" {
		ob = obs.New()
	}

	full := *scale == "full"
	want := map[string]bool{}
	for _, id := range strings.Split(*run, ",") {
		want[strings.TrimSpace(strings.ToLower(id))] = true
	}
	all := want["all"]
	sel := func(id string) bool { return all || want[id] }

	exitErr := func(id string, err error) {
		fmt.Fprintf(os.Stderr, "expdriver: %s: %v\n", id, err)
		os.Exit(1)
	}

	if sel("e1") {
		r := experiments.E1IntroOverhead()
		fmt.Println("== E1: introduction file-size arithmetic (Section I) ==")
		fmt.Printf("  cells=%s  data=%s bytes\n", stats.FormatBytes(r.Cells), stats.FormatBytes(r.DataBytes))
		fmt.Printf("  %-28s %15s %15s\n", "variable encoding", "file bytes", "paper")
		fmt.Printf("  %-28s %15s %15s\n", "4-byte index", stats.FormatBytes(r.IndexFileBytes), "26,000,006")
		fmt.Printf("  %-28s %15s %15s\n", "Text \"windspeed1\"", stats.FormatBytes(r.NameFileBytes), "33,000,006")
		fmt.Printf("  overhead: index %.0f%%, name %.0f%% (paper states 450%%/625%%; see EXPERIMENTS.md)\n", r.IndexOverheadPct, r.NameOverheadPct)
		fmt.Printf("  key/value ratio (name mode) = %.2f (paper: 6.75)\n\n", r.KeyValueRatio)
	}
	if sel("e2") {
		r := experiments.E2SequenceDetection()
		fmt.Println("== E2: Fig. 2 sequence detection ==")
		fmt.Printf("  detected stride=%d phase=%d delta=%#x run=%d (paper: s=47, phi=34, delta=0x0a)\n\n",
			r.Stride, r.Phase, r.Delta, r.Run)
	}
	if sel("e3") {
		n := 50
		if full {
			n = 100
		}
		rows, err := experiments.E3ByteLevelCompression(n)
		if err != nil {
			exitErr("e3", err)
		}
		fmt.Printf("== E3: Fig. 3 byte-level compression (%d^3 walk) ==\n", n)
		paper := map[string]string{
			"original": "12,000,000", "gzip": "1,630,000", "transform+gzip": "33,000",
			"bzip2": "512,000", "transform+bzip2": "~500",
		}
		fmt.Printf("  %-18s %14s %9s %16s\n", "method", "bytes", "seconds", "paper (n=100)")
		for _, r := range rows {
			fmt.Printf("  %-18s %14s %9.2f %16s\n", r.Method, stats.FormatBytes(r.Bytes), r.Seconds, paper[r.Method])
		}
		fmt.Println()
	}
	if sel("e4") {
		ns := []int{20, 30, 40, 50}
		if full {
			ns = []int{20, 40, 60, 80, 100}
		}
		r := experiments.E4TransformTimeVsSize(ns, ob)
		fmt.Println("== E4: Fig. 4 transform time vs file size ==")
		for _, p := range r.Points {
			fmt.Printf("  %14s bytes  %8.3f s\n", stats.FormatBytes(p.Bytes), p.Seconds)
		}
		fmt.Printf("  linear fit: %.1f MiB/s, R^2=%.4f (paper: linear)\n\n", r.MBPerSec, r.R2)

		n := ns[len(ns)-1]
		rows, err := experiments.E4ParallelPipeline(n)
		if err != nil {
			exitErr("e4", err)
		}
		fmt.Printf("== E4b (extension): the transform inside the parallel block pipeline (%d^3 walk, GOMAXPROCS %d) ==\n",
			n, runtime.GOMAXPROCS(0))
		fmt.Printf("  %-22s %12s %12s %9s %10s %6s\n", "codec", "bytes in", "bytes out", "seconds", "MiB/s", "ident")
		for _, row := range rows {
			fmt.Printf("  %-22s %12s %12s %9.3f %10.1f %6v\n", row.Codec,
				stats.FormatBytes(row.Bytes), stats.FormatBytes(row.OutBytes), row.Seconds, row.MBPerSec,
				row.Identical)
		}
		fmt.Println()
	}
	if sel("e5") {
		n := 50
		if full {
			n = 100
		}
		r, err := experiments.E5StrideStrategies(n)
		if err != nil {
			exitErr("e5", err)
		}
		fmt.Printf("== E5: stride strategies (%d^3 walk, bzip2 of residual) ==\n", n)
		fmt.Printf("  fixed stride 12:    %12s bytes (paper: 1,619 on its dataset)\n", stats.FormatBytes(r.FixedStride12Bytes))
		fmt.Printf("  exhaustive (<100):  %12s bytes (paper:   701)\n", stats.FormatBytes(r.ExhaustiveBytes))
		fmt.Printf("  adaptive:           %12s bytes (paper:   468)\n", stats.FormatBytes(r.AdaptiveBytes))
		fmt.Printf("  brute-force slowdown: %.1fx @ max stride 100 (paper ~4x), %.1fx @ 1000 (paper ~17x)\n\n",
			r.Slowdown100, r.Slowdown1000)
	}
	if sel("e6") {
		side := 128
		if full {
			side = 512
		}
		r, err := experiments.E6TransformCodecOnMedian(side)
		if err != nil {
			exitErr("e6", err)
		}
		control, err := experiments.E6ZlibAloneOnMedian(side)
		if err != nil {
			exitErr("e6", err)
		}
		fmt.Printf("== E6: Section III-E sliding median with transform+zlib codec (%dx%d grid) ==\n", side, side)
		printComparison(r, "77.8%", "+106%", control)
	}
	if sel("e7") {
		r, err := experiments.E7AggregationDataSize()
		if err != nil {
			exitErr("e7", err)
		}
		fmt.Println("== E7: Fig. 8 key aggregation data-size decomposition (10^6-cell int grid) ==")
		for _, b := range []experiments.E7Bars{r.Original, r.Compressed} {
			fmt.Printf("  %-11s values=%12s  keys=%12s  file overhead=%12s  total=%12s (%s records)\n",
				b.Label, stats.FormatBytes(b.ValueBytes), stats.FormatBytes(b.KeyBytes),
				stats.FormatBytes(b.FileOverhead), stats.FormatBytes(b.Total()),
				stats.FormatBytes(b.Records))
		}
		fmt.Printf("  reduction: %.1f%% (paper: up to 84.5%%, depending on data types)\n\n", r.ReductionPct)
	}
	if sel("e8") {
		side := 128
		if full {
			side = 512
		}
		r, err := experiments.E8AggregationOnMedian(side)
		if err != nil {
			exitErr("e8", err)
		}
		composed, err := experiments.E8AggregationZlibOnMedian(side)
		if err != nil {
			exitErr("e8", err)
		}
		fmt.Printf("== E8: Section IV-D sliding median with key aggregation (%dx%d grid) ==\n", side, side)
		printComparison(r, "60.7%", "-28.5%", composed)
	}
	if sel("e9") {
		r := experiments.E9Mechanics()
		fmt.Println("== E9: Figs. 5-7 mechanics ==")
		fmt.Printf("  Fig. 6 coalescing of {5,6,7,9,10,13}: %s\n", strings.Join(r.Fig6Ranges, " "))
		fmt.Printf("  Fig. 7 overlap split of [0,10) and [6,14): %s\n\n", strings.Join(r.Fig7Fragments, " "))
	}
	if sel("e10") {
		side := 96
		if full {
			side = 256
		}
		rows, err := experiments.E10AggregationGeometries(side, ob)
		if err != nil {
			exitErr("e10", err)
		}
		fmt.Printf("== E10 (extension): aggregation geometries on the sliding median (%dx%d) ==\n", side, side)
		fmt.Printf("  %-16s %12s %14s %16s %10s\n", "scheme", "agg pairs", "key bytes", "materialized B", "splits")
		for _, r := range rows {
			fmt.Printf("  %-16s %12s %14s %16s %10s\n", r.Scheme,
				stats.FormatBytes(r.MapOutputRecords), stats.FormatBytes(r.KeyBytes),
				stats.FormatBytes(r.MaterializedBytes), stats.FormatBytes(r.Splits))
		}
		fmt.Println()
	}
	if sel("e11") {
		n := 4096
		if full {
			n = 65536
		}
		rows, err := experiments.E11SparseKeys(n, 11)
		if err != nil {
			exitErr("e11", err)
		}
		fmt.Printf("== E11 (extension): sparse keys — Goldstein FOR pages vs the paper's schemes (%d clustered keys) ==\n", n)
		fmt.Printf("  %-18s %12s %12s\n", "scheme", "bytes", "agg pairs")
		for _, r := range rows {
			pairs := ""
			if r.Pairs > 0 {
				pairs = stats.FormatBytes(r.Pairs)
			}
			fmt.Printf("  %-18s %12s %12s\n", r.Scheme, stats.FormatBytes(r.Bytes), pairs)
		}
		fmt.Println()
	}
	if sel("e12") {
		side := 96
		if full {
			side = 256
		}
		r, err := experiments.E12FaultRecovery(side)
		if err != nil {
			exitErr("e12", err)
		}
		fmt.Printf("== E12 (extension): fault recovery on the sliding median (%dx%d, schedule %q) ==\n",
			side, side, experiments.E12Schedule)
		fmt.Printf("  outputs byte-identical to fault-free run: %v\n", r.OutputsIdentical)
		fmt.Printf("  payload counters identical:               %v\n", r.CountersIdentical)
		fmt.Printf("  failed attempts=%d retries=%d corrupt segments=%d maps recovered=%d\n",
			r.Faulty.FailedAttempts, r.Faulty.TaskRetries, r.Faulty.CorruptSegments, r.Faulty.RecoveredMaps)
		fmt.Printf("  wasted slot time: map %.2fs + reduce %.2fs; modeled runtime overhead %+.1f%%\n\n",
			r.Faulty.Estimate.WastedMapSeconds, r.Faulty.Estimate.WastedReduceSeconds, r.RuntimeOverheadPct)
	}
	if sel("e13") {
		side := 96
		if full {
			side = 256
		}
		r, err := experiments.E13ChaosSoak(side, ob)
		if err != nil {
			exitErr("e13", err)
		}
		fmt.Printf("== E13 (extension): networked-shuffle chaos soak on the sliding median (%dx%d) ==\n", side, side)
		fmt.Printf("  %-12s %9s %9s %9s %9s %10s %8s %6s\n",
			"schedule", "fetches", "retries", "resumed", "wasted B", "breaker", "re-maps", "ident")
		for _, run := range r.Runs {
			rep := run.Report
			fmt.Printf("  %-12s %9d %9d %9d %9s %10d %8d %6v\n",
				run.Name, rep.ShuffleFetches, rep.ShuffleFetchRetries, rep.ShuffleFetchesResumed,
				stats.FormatBytes(rep.ShuffleFetchWastedBytes), rep.ShuffleBreakerTrips,
				rep.RecoveredMaps, run.OutputsIdentical)
		}
		fmt.Println()
	}
	if sel("e16") {
		side := 96
		if full {
			side = 256
		}
		r, err := experiments.E16InNodeCombining(side, ob)
		if err != nil {
			exitErr("e16", err)
		}
		fmt.Printf("== E16 (extension): in-node combining under the Monoid contract (%dx%d) ==\n", side, side)
		fmt.Printf("  median: combining refused at build time (holistic, no monoid):\n    %s\n", r.MedianRefusal)
		fmt.Printf("  %-12s %12s %12s %8s %10s %10s %6s\n",
			"workload", "shuffle off", "shuffle on", "reduct", "merged", "saved B", "ident")
		for _, row := range r.Rows {
			fmt.Printf("  %-12s %12s %12s %7.1f%% %10d %10s %6v\n",
				row.Workload, stats.FormatBytes(row.ShuffleBytesOff),
				stats.FormatBytes(row.ShuffleBytesOn), row.ReductionPct,
				row.MergedRecords, stats.FormatBytes(row.SavedBytes), row.OutputsIdentical)
		}
		fmt.Println()
	}
	if sel("e17") {
		side := 48
		if full {
			side = 128
		}
		r, err := runE17(side)
		if err != nil {
			exitErr("e17", err)
		}
		fmt.Printf("== E17 (extension): resident query service — segment-cache hit rate on a repeated-query mix (%dx%d) ==\n", side, side)
		fmt.Printf("  %-8s %10s %6s %6s %9s %7s %9s\n",
			"backend", "submitted", "cold", "hits", "hit rate", "ident", "map-skip")
		fmt.Printf("  %-8s %10d %6d %6d %8.1f%% %7v %9v\n",
			"local", r.Submitted, r.ColdRuns, r.CacheHits, r.HitRate, r.Identical, r.MapSkipped)
		fmt.Println()
	}
	if sel("a5") {
		side := 96
		if full {
			side = 256
		}
		r, err := experiments.A5SplitInflation(side)
		if err != nil {
			exitErr("a5", err)
		}
		fmt.Printf("== A5 (extension): key-count inflation from splitting, recovery by re-aggregation (%dx%d) ==\n", side, side)
		fmt.Printf("  mapper aggregate pairs:        %s\n", stats.FormatBytes(r.MapperPairs))
		fmt.Printf("  after partition splits:        %s\n", stats.FormatBytes(r.AfterPartitionSplit))
		fmt.Printf("  after overlap splits:          %s\n", stats.FormatBytes(r.AfterOverlapSplit))
		fmt.Printf("  reducer output pairs (plain):  %s\n", stats.FormatBytes(r.OutputPairsPlain))
		fmt.Printf("  reducer output pairs (reagg):  %s\n\n", stats.FormatBytes(r.OutputPairsReagg))
	}
	if sel("a1") {
		boxes := 100
		if full {
			boxes = 1000
		}
		fmt.Println("== A1: space-filling-curve comparison (random 2-D query boxes) ==")
		fmt.Printf("  %-10s %12s %14s\n", "curve", "mean runs", "ns/index")
		for _, row := range experiments.A1CurveComparison(8, boxes, 42) {
			fmt.Printf("  %-10s %12.1f %14.1f\n", row.Curve, row.MeanRuns, row.NsPerIndex)
		}
		fmt.Println()
	}
	if sel("a2") {
		side := 256
		if full {
			side = 1024
		}
		fmt.Printf("== A2: aggregation flush threshold (%dx%d row-major walk) ==\n", side, side)
		fmt.Printf("  %12s %12s %16s\n", "flush cells", "agg pairs", "key bytes/cell")
		for _, row := range experiments.A2FlushThreshold(side, []int{256, 1024, 8192, 1 << 16, 1 << 20}) {
			fmt.Printf("  %12d %12d %16.4f\n", row.FlushCells, row.PairsOut, row.BytesPerCell)
		}
		fmt.Println()
	}
	if sel("a3") {
		fmt.Println("== A3: alignment expansion vs key overlap (Section IV-C) ==")
		fmt.Printf("  %7s %11s %12s %10s\n", "align", "fragments", "equal pairs", "pad cells")
		for _, row := range experiments.A3Alignment([]uint64{1, 2, 4, 8, 16}) {
			fmt.Printf("  %7d %11d %12d %10d\n", row.Align, row.Fragments, row.EqualPairs, row.PadCells)
		}
		fmt.Println()
	}
	if sel("a6") {
		side := 96
		if full {
			side = 256
		}
		rows, err := experiments.A6LocalityReplication(side, []int{1, 2, 3, 5})
		if err != nil {
			exitErr("a6", err)
		}
		fmt.Printf("== A6 (extension): map-input locality vs HDFS replication (%dx%d, 5 nodes) ==\n", side, side)
		fmt.Printf("  %12s %12s %14s\n", "replication", "local maps", "map est (s)")
		for _, r := range rows {
			fmt.Printf("  %12d %11.0f%% %14.2f\n", r.Replication, r.LocalPct, r.MapSeconds)
		}
		fmt.Println()
	}
	if sel("a8") {
		side := 96
		if full {
			side = 192
		}
		rows, err := experiments.A8SortPhases(side)
		if err != nil {
			exitErr("a8", err)
		}
		fmt.Printf("== A8 (extension): on-disk sort-phase amplification (%dx%d, small spill buffer, merge factor 4) ==\n", side, side)
		fmt.Printf("  %-14s %16s %16s %10s\n", "scheme", "materialized B", "total disk B", "amplif.")
		for _, r := range rows {
			fmt.Printf("  %-14s %16s %16s %9.1fx\n", r.Scheme,
				stats.FormatBytes(r.MaterializedBytes), stats.FormatBytes(r.DiskBytes), r.Amplification)
		}
		fmt.Println()
	}
	if sel("a7") {
		rows, err := experiments.A7SettlingWindow([]int{2, 4, 8, 16, 32})
		if err != nil {
			exitErr("a7", err)
		}
		fmt.Println("== A7 (extension): settling window ('2s requirement') vs re-adaptation ==")
		fmt.Printf("  %8s %16s %16s\n", "factor", "residual zeros", "bzip2 bytes")
		for _, r := range rows {
			note := ""
			if r.MinActiveFactor == 2 {
				note = "  (paper)"
			}
			fmt.Printf("  %8d %15.1f%% %16s%s\n", r.MinActiveFactor, r.ResidualZeroPct,
				stats.FormatBytes(r.CompressedBytes), note)
		}
		fmt.Println()
	}
	if sel("a4") {
		n := 40
		if full {
			n = 100
		}
		rows, err := experiments.A4DetectorParams(n)
		if err != nil {
			exitErr("a4", err)
		}
		fmt.Printf("== A4: detector parameter sensitivity (%d^3 walk) ==\n", n)
		fmt.Printf("  %-20s %16s %16s\n", "setting", "residual zeros", "bzip2 bytes")
		for _, row := range rows {
			fmt.Printf("  %-20s %15.1f%% %16s\n", row.Label, row.ResidualZeroPct, stats.FormatBytes(row.CompressedBytes))
		}
		fmt.Println()
	}

	if *traceOut != "" {
		if err := obs.WriteFile(*traceOut, ob.T().WriteChromeTrace); err != nil {
			exitErr("trace-out", err)
		}
		fmt.Printf("trace written to %s (open in chrome://tracing or Perfetto)\n", *traceOut)
	}
}

// printComparison prints the paper's row against the baseline, then an
// extra row the paper has no figure for, with its own reduction.
func printComparison(r experiments.StrategyComparison, paperReduction, paperRuntime string, extra experiments.StrategyComparison) {
	fmt.Printf("  %-24s %18s %14s %12s %12s\n", "strategy", "materialized B", "records", "map est (s)", "total est (s)")
	for _, rep := range []*core.Report{r.Baseline, r.Variant, extra.Variant} {
		fmt.Printf("  %-24s %18s %14s %12.1f %12.1f\n", rep.Strategy,
			stats.FormatBytes(rep.MaterializedBytes), stats.FormatBytes(rep.MapOutputRecords),
			rep.Estimate.MapSeconds, rep.Estimate.Total())
	}
	fmt.Printf("  intermediate-data reduction: %.1f%% (paper: %s)\n", r.ReductionPct, paperReduction)
	fmt.Printf("  modeled runtime delta:       %+.1f%% (paper: %s)\n", r.RuntimeDeltaPct, paperRuntime)
	fmt.Printf("  %s: reduction %.1f%%, modeled runtime delta %+.1f%% (no paper figure)\n\n",
		extra.Variant.Strategy, extra.ReductionPct, extra.RuntimeDeltaPct)
}

// Sliding median end-to-end: run the paper's evaluation query (a holistic
// 3x3 median over a 2-D integer grid) on the in-process MapReduce cluster
// with simple and aggregate keys, each with and without a map-output codec,
// check that every strategy produces identical results, and print the byte
// and runtime comparison — a miniature of the paper's Sections III-E and
// IV-D experiments, and of the two composed.
package main

import (
	"fmt"
	"log"

	"scikey/internal/cluster"
	"scikey/internal/core"
	"scikey/internal/scihadoop"
	"scikey/internal/stats"
	"scikey/internal/workload"
)

func main() {
	const side = 96
	fs, qcfg, err := scihadoop.MedianSetup(side)
	if err != nil {
		log.Fatal(err)
	}
	clus := cluster.Paper() // 5 nodes, 10 map slots, 5 reducers

	field := &workload.Field{Extent: qcfg.DS.Extent, Name: qcfg.DS.Var.Name}
	want := scihadoop.Reference(field, qcfg.DS.Extent, 1, scihadoop.Median)

	strategies := []core.Strategy{
		{Kind: core.Baseline},
		{Kind: core.Baseline, Codec: "transform+zlib"},
		{Kind: core.Aggregation, Curve: "zorder"},
		{Kind: core.Aggregation, Curve: "zorder", Codec: "zlib"},
	}
	var baseline *core.Report
	fmt.Printf("sliding 3x3 median over a %dx%d grid (%d output cells)\n\n", side, side, len(want))
	fmt.Printf("%-24s %14s %12s %12s %10s\n", "strategy", "intermediate B", "records", "key splits", "est (s)")
	for _, s := range strategies {
		q := qcfg
		q.OutputPath = "/out/" + s.Name()
		rep, err := core.RunQuery(fs, q, s, clus, true)
		if err != nil {
			log.Fatal(err)
		}
		for k, w := range want {
			if rep.Output[k] != w {
				log.Fatalf("%s: wrong median at %s: %d != %d", s.Name(), k, rep.Output[k], w)
			}
		}
		if baseline == nil {
			baseline = rep
		}
		fmt.Printf("%-24s %14s %12s %12s %10.2f\n", rep.Strategy,
			stats.FormatBytes(rep.MaterializedBytes),
			stats.FormatBytes(rep.MapOutputRecords),
			stats.FormatBytes(rep.PartitionSplits+rep.OverlapSplits),
			rep.Estimate.Total())
		if rep != baseline {
			fmt.Printf("%24s -> %.1f%% fewer intermediate bytes, %+.1f%% modeled runtime\n",
				"", 100*rep.Reduction(baseline), 100*rep.RuntimeDelta(baseline))
		}
	}
	fmt.Println("\nEvery strategy produced the same query results.")
}

// Package scikey's root benchmarks regenerate every table and figure of
// the paper (see DESIGN.md's experiment index). Each benchmark reports the
// experiment's domain metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the numbers EXPERIMENTS.md records. BenchmarkE<n> map to the
// paper's tables/figures; BenchmarkA<n> are the DESIGN.md ablations.
package scikey

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"scikey/internal/codec"
	"scikey/internal/experiments"
	"scikey/internal/grid"
	"scikey/internal/ifile"
	"scikey/internal/keys"
	"scikey/internal/predictor"
	"scikey/internal/serial"
	"scikey/internal/sfc"
	"scikey/internal/workload"
)

// BenchmarkE1_IntroOverhead regenerates the introduction's intermediate
// file sizes (paper: 26,000,006 and 33,000,006 bytes; key/value 6.75).
func BenchmarkE1_IntroOverhead(b *testing.B) {
	var r experiments.E1Result
	for i := 0; i < b.N; i++ {
		r = experiments.E1IntroOverhead()
	}
	b.ReportMetric(float64(r.IndexFileBytes), "indexfile_B")
	b.ReportMetric(float64(r.NameFileBytes), "namefile_B")
	b.ReportMetric(r.KeyValueRatio, "key/value")
}

// BenchmarkE3_ByteLevelCompression regenerates the Fig. 3 table on the
// full 100^3 (12,000,000-byte) input.
func BenchmarkE3_ByteLevelCompression(b *testing.B) {
	data := workload.GridWalkTriples(100)
	for _, name := range []string{"gzip", "transform+gzip", "bzip2", "transform+bzip2"} {
		b.Run(name, func(b *testing.B) {
			c, err := codec.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			var size int
			for i := 0; i < b.N; i++ {
				comp, err := codec.Compress(c, data)
				if err != nil {
					b.Fatal(err)
				}
				size = len(comp)
			}
			b.ReportMetric(float64(size), "out_B")
		})
	}
}

// BenchmarkE4_TransformTimeVsSize regenerates Fig. 4: constant MB/s across
// sizes demonstrates the linear relationship.
func BenchmarkE4_TransformTimeVsSize(b *testing.B) {
	for _, n := range []int{20, 40, 60, 80, 100} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			data := workload.GridWalkTriples(n)
			tr := predictor.NewTransformer(predictor.Config{})
			dst := make([]byte, 0, len(data))
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Reset()
				dst = tr.Forward(dst[:0], data)
			}
		})
	}
}

// BenchmarkE4_BlockPipeline measures the parallel block codec around the
// steady-state transform: the Fig. 4 stream encoded as block+transform+none
// with GOMAXPROCS — the pipeline's width — set to 1, 2, and the machine's
// own value. Every width emits identical bytes; the MB/s spread is the
// pipeline's speedup on the machine at hand (flat on a single-core box).
func BenchmarkE4_BlockPipeline(b *testing.B) {
	data := workload.GridWalkTriples(60)
	widths := []int{1}
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		if w > widths[len(widths)-1] {
			widths = append(widths, w)
		}
	}
	for _, w := range widths {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(w)
			b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			blk := codec.NewBlock(codec.NewTransform(codec.None))
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := codec.Compress(blk, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransformSteadyState measures the predictor kernel in its
// locked-in regime: a long structured stream where the stride detector has
// settled, so nearly every byte should travel the batch fast path. This is
// the MB/s number the inline map→reduce transform of Section III lives or
// dies by. The inverse rows are the reduce side of the same bargain:
// "inverse" undoes the same stream in one call, "inverse-records" the
// stream a reducer actually decodes — 25-byte IFile records in fetched
// segments, one Reset per segment, 4 KiB reads — where warm-up and the
// selection cycle's probationary stride are a steady share of the bytes.
func BenchmarkTransformSteadyState(b *testing.B) {
	data := workload.GridWalkTriples(60) // 2.6 MB, stride-12 structure
	cfgs := map[string]predictor.Config{
		"adaptive": {},
		"fixed12":  {Mode: predictor.Fixed, Strides: []int{12}},
	}
	for _, name := range []string{"adaptive", "fixed12"} {
		b.Run(name, func(b *testing.B) {
			tr := predictor.NewTransformer(cfgs[name])
			dst := make([]byte, 0, len(data))
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Reset()
				dst = tr.Forward(dst[:0], data)
			}
		})
	}
	inverse := func(b *testing.B, segs [][]byte, chunk int) {
		tr := predictor.NewTransformer(predictor.Config{})
		var total, longest int
		res := make([][]byte, len(segs))
		for i, seg := range segs {
			tr.Reset()
			res[i] = tr.Forward(nil, seg)
			total += len(seg)
			longest = max(longest, len(seg))
		}
		dst := make([]byte, 0, longest)
		b.SetBytes(int64(total))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range res {
				tr.Reset()
				dst = dst[:0]
				for off := 0; off < len(r); off += chunk {
					dst = tr.Inverse(dst, r[off:min(off+chunk, len(r))])
				}
			}
		}
		b.StopTimer()
		if !bytes.Equal(dst, segs[len(segs)-1]) {
			b.Fatal("inverse did not reconstruct the last segment")
		}
	}
	b.Run("inverse", func(b *testing.B) { inverse(b, [][]byte{data}, len(data)) })
	b.Run("inverse-records", func(b *testing.B) { inverse(b, recordSegments(b, 50), 4096) })
}

// recordSegments builds n map-output segments shaped like the baseline
// sliding-median job's: sorted "windspeed1" GridKeys of one hash partition,
// nine 4-byte values per key, framed by ifile.Writer — 25 bytes a record,
// about 74 KB a segment.
func recordSegments(tb testing.TB, n int) [][]byte {
	kc := &keys.Codec{Rank: 2, Mode: keys.VarByName}
	field := &workload.Field{Name: "windspeed1"}
	out := serial.NewDataOutput(32)
	segs := make([][]byte, n)
	for g := range segs {
		var buf bytes.Buffer
		w := ifile.NewWriter(&buf)
		for cell := 0; cell < 328; cell++ {
			c := grid.Coord{13*g + cell/26, 5*(cell%26) + g%5}
			out.Reset()
			kc.EncodeGrid(out, keys.GridKey{Var: keys.VarRef{Name: field.Name}, Coord: c})
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if err := w.Append(out.Bytes(), field.ValueBytes(grid.Coord{c[0] + dy, c[1] + dx})); err != nil {
						tb.Fatal(err)
					}
				}
			}
		}
		if err := w.Close(); err != nil {
			tb.Fatal(err)
		}
		segs[g] = buf.Bytes()
	}
	return segs
}

// BenchmarkE5_StrideStrategies times the three stride-selection modes on
// the same stream (brute force vs adaptive is the paper's 4x/17x claim).
func BenchmarkE5_StrideStrategies(b *testing.B) {
	data := workload.GridWalkTriples(50)
	cfgs := map[string]predictor.Config{
		"fixed12":        {Mode: predictor.Fixed, Strides: []int{12}},
		"adaptive100":    {Mode: predictor.Adaptive, MaxStride: 100},
		"exhaustive100":  {Mode: predictor.Exhaustive, MaxStride: 100},
		"adaptive1000":   {Mode: predictor.Adaptive, MaxStride: 1000},
		"exhaustive1000": {Mode: predictor.Exhaustive, MaxStride: 1000},
	}
	for _, name := range []string{"fixed12", "adaptive100", "exhaustive100", "adaptive1000", "exhaustive1000"} {
		b.Run(name, func(b *testing.B) {
			tr := predictor.NewTransformer(cfgs[name])
			dst := make([]byte, 0, len(data))
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Reset()
				dst = tr.Forward(dst[:0], data)
			}
		})
	}
}

// BenchmarkE6_MedianTransformCodec regenerates Section III-E (paper:
// bytes -77.8%, runtime +106%).
func BenchmarkE6_MedianTransformCodec(b *testing.B) {
	var r experiments.StrategyComparison
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.E6TransformCodecOnMedian(192)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.ReductionPct, "reduction_%")
	b.ReportMetric(r.RuntimeDeltaPct, "runtime_delta_%")
}

// BenchmarkE7_AggregationDataSize regenerates Fig. 8 (paper: up to 84.5%
// reduction).
func BenchmarkE7_AggregationDataSize(b *testing.B) {
	var r experiments.E7Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.E7AggregationDataSize()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Original.Total()), "original_B")
	b.ReportMetric(float64(r.Compressed.Total()), "compressed_B")
	b.ReportMetric(r.ReductionPct, "reduction_%")
}

// BenchmarkE8_MedianAggregation regenerates Section IV-D (paper: bytes
// -60.7%, runtime -28.5%).
func BenchmarkE8_MedianAggregation(b *testing.B) {
	var r experiments.StrategyComparison
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.E8AggregationOnMedian(192)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.ReductionPct, "reduction_%")
	b.ReportMetric(r.RuntimeDeltaPct, "runtime_delta_%")
}

// BenchmarkE10_AggregationGeometries compares curve-range aggregation with
// greedy n-D box aggregation (the Fig. 5 alternative) on the median query.
func BenchmarkE10_AggregationGeometries(b *testing.B) {
	var rows []experiments.E10Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.E10AggregationGeometries(96, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Scheme == "curve/zorder" {
			b.ReportMetric(float64(r.MaterializedBytes), "zorder_B")
		}
		if r.Scheme == "boxes" {
			b.ReportMetric(float64(r.MaterializedBytes), "boxes_B")
		}
	}
}

// BenchmarkA5_SplitInflation measures the Section IV-B open question.
func BenchmarkA5_SplitInflation(b *testing.B) {
	var r experiments.A5Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.A5SplitInflation(96)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.MapperPairs), "mapper_pairs")
	b.ReportMetric(float64(r.AfterOverlapSplit), "post_split_pairs")
	b.ReportMetric(float64(r.OutputPairsReagg), "reagg_pairs")
}

// BenchmarkA1_CurveComparison measures per-curve index cost; mean runs per
// box (the clustering metric) rides along as a reported metric.
func BenchmarkA1_CurveComparison(b *testing.B) {
	rows := experiments.A1CurveComparison(8, 200, 42)
	runs := map[string]float64{}
	for _, r := range rows {
		runs[r.Curve] = r.MeanRuns
	}
	for _, name := range []string{"zorder", "hilbert", "peano", "rowmajor"} {
		b.Run(name, func(b *testing.B) {
			c, err := sfc.ForSide(name, 2, 256)
			if err != nil {
				b.Fatal(err)
			}
			coords := make([]uint64, 0, 1024)
			for i := 0; i < 1024; i++ {
				coords = append(coords, uint64(i*2654435761)%65536)
			}
			b.ResetTimer()
			var sink uint64
			for i := 0; i < b.N; i++ {
				idx := coords[i%len(coords)]
				sink += c.Index(c.Coord(idx))
			}
			_ = sink
			b.ReportMetric(runs[name], "runs/box")
		})
	}
}

// BenchmarkA2_FlushThreshold measures aggregation at several buffer sizes.
func BenchmarkA2_FlushThreshold(b *testing.B) {
	for _, th := range []int{256, 4096, 1 << 16} {
		b.Run(fmt.Sprintf("flush=%d", th), func(b *testing.B) {
			var rows []experiments.A2Row
			for i := 0; i < b.N; i++ {
				rows = experiments.A2FlushThreshold(256, []int{th})
			}
			b.ReportMetric(float64(rows[0].PairsOut), "agg_pairs")
			b.ReportMetric(rows[0].BytesPerCell, "keyB/cell")
		})
	}
}

// BenchmarkA3_Alignment measures overlap splitting with and without
// alignment expansion.
func BenchmarkA3_Alignment(b *testing.B) {
	for _, align := range []uint64{1, 8, 16} {
		b.Run(fmt.Sprintf("align=%d", align), func(b *testing.B) {
			var rows []experiments.A3Row
			for i := 0; i < b.N; i++ {
				rows = experiments.A3Alignment([]uint64{align})
			}
			b.ReportMetric(float64(rows[0].Fragments), "fragments")
			b.ReportMetric(float64(rows[0].PadCells), "pad_cells")
		})
	}
}

// BenchmarkA4_DetectorParams sweeps the detector's tuning knobs.
func BenchmarkA4_DetectorParams(b *testing.B) {
	data := workload.GridWalkTriples(40)
	cfgs := map[string]predictor.Config{
		"cycle=64":   {SelectionCycle: 64},
		"cycle=256":  {SelectionCycle: 256},
		"cycle=4096": {SelectionCycle: 4096},
		"hit=1/2":    {HitRateNum: 1, HitRateDen: 2},
		"hit=5/6":    {HitRateNum: 5, HitRateDen: 6},
	}
	for _, name := range []string{"cycle=64", "cycle=256", "cycle=4096", "hit=1/2", "hit=5/6"} {
		b.Run(name, func(b *testing.B) {
			tr := predictor.NewTransformer(cfgs[name])
			dst := make([]byte, 0, len(data))
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Reset()
				dst = tr.Forward(dst[:0], data)
			}
		})
	}
}

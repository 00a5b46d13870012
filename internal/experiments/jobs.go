package experiments

import (
	"scikey/internal/aggregate"
	"scikey/internal/cluster"
	"scikey/internal/core"
	"scikey/internal/grid"
	"scikey/internal/ifile"
	"scikey/internal/keys"
	"scikey/internal/scihadoop"
	"scikey/internal/serial"
	"scikey/internal/workload"
)

// StrategyComparison is the shared E6/E8 result: a strategy versus the
// uncompressed baseline on the sliding-median query.
type StrategyComparison struct {
	Baseline *core.Report
	Variant  *core.Report
	// ReductionPct is the materialized-bytes reduction (paper: 77.8% for
	// transform+zlib, 60.7% for aggregation).
	ReductionPct float64
	// RuntimeDeltaPct is the modeled runtime change (paper: +106% for
	// transform+zlib, -28.5% for aggregation).
	RuntimeDeltaPct float64
}

func compareStrategies(side int, variant core.Strategy) (StrategyComparison, error) {
	fs, qcfg, err := scihadoop.MedianSetup(side)
	if err != nil {
		return StrategyComparison{}, err
	}
	clus := cluster.Paper()
	bcfg := qcfg
	bcfg.OutputPath = "/out/baseline"
	base, err := core.RunQuery(fs, bcfg, core.Strategy{Kind: core.Baseline}, clus, false)
	if err != nil {
		return StrategyComparison{}, err
	}
	vcfg := qcfg
	vcfg.OutputPath = "/out/variant"
	rep, err := core.RunQuery(fs, vcfg, variant, clus, false)
	if err != nil {
		return StrategyComparison{}, err
	}
	return StrategyComparison{
		Baseline:        base,
		Variant:         rep,
		ReductionPct:    100 * rep.Reduction(base),
		RuntimeDeltaPct: 100 * rep.RuntimeDelta(base),
	}, nil
}

// E6TransformCodecOnMedian is Section III-E: sliding median with the
// transform+zlib map-output codec versus no codec.
func E6TransformCodecOnMedian(side int) (StrategyComparison, error) {
	return compareStrategies(side, core.Strategy{Kind: core.Baseline, Codec: "transform+zlib"})
}

// E6ZlibAloneOnMedian is E6's control row: zlib with no predictor under it,
// so what the transform adds over a generic codec shows.
func E6ZlibAloneOnMedian(side int) (StrategyComparison, error) {
	return compareStrategies(side, core.Strategy{Kind: core.Baseline, Codec: "zlib"})
}

// E8AggregationOnMedian is Section IV-D: sliding median with key
// aggregation versus simple keys.
func E8AggregationOnMedian(side int) (StrategyComparison, error) {
	return compareStrategies(side, core.Strategy{Kind: core.Aggregation, Curve: "zorder"})
}

// E8AggregationZlibOnMedian is E8's composed row: aggregate keys under zlib,
// the paper's Sections IV and III together.
func E8AggregationZlibOnMedian(side int) (StrategyComparison, error) {
	return compareStrategies(side, core.Strategy{Kind: core.Aggregation, Curve: "zorder", Codec: "zlib"})
}

// E7Bars is one Fig. 8 bar: the byte decomposition of an intermediate file.
type E7Bars struct {
	Label      string
	ValueBytes int64
	KeyBytes   int64
	// FileOverhead is record framing plus the stream trailer.
	FileOverhead int64
	Records      int64
}

// Total sums the bar segments.
func (b E7Bars) Total() int64 { return b.ValueBytes + b.KeyBytes + b.FileOverhead }

// E7Result compares the original and aggregated encodings (Fig. 8).
type E7Result struct {
	Original   E7Bars
	Compressed E7Bars
	// ReductionPct is the total-size reduction (paper: up to 84.5%,
	// depending on data types).
	ReductionPct float64
}

// E7AggregationDataSize writes one (coordinate key, int32) record per cell
// of a 4-D million-cell grid, then the aggregated equivalent, and
// decomposes both files into Fig. 8's values / keys / file-overhead bars.
// The ideal case: one mapper, whole grid, row-major traversal.
func E7AggregationDataSize() (E7Result, error) {
	shape := grid.NewBox(grid.Coord{0, 0, 0, 0}, []int{1, 100, 100, 100})
	kc := &keys.Codec{Rank: 4, Mode: keys.VarNone}
	field := &workload.Field{Extent: shape, Name: "ints"}

	// Original: one record per cell, 16-byte coordinate key + 4-byte int.
	cw := &countWriter{}
	w := ifile.NewWriter(cw)
	out := serial.NewDataOutput(32)
	grid.ForEach(shape, func(c grid.Coord) {
		out.Reset()
		kc.EncodeGrid(out, keys.GridKey{Coord: c})
		w.Append(out.Bytes(), field.ValueBytes(c))
	})
	w.Close()
	os := w.Stats()
	orig := E7Bars{
		Label:        "original",
		ValueBytes:   os.ValBytes,
		KeyBytes:     os.KeyBytes,
		FileOverhead: os.FrameBytes + os.TrailerBytes,
		Records:      os.Records,
	}

	// Compressed: aggregate the same cells (row-major curve follows the
	// traversal, so the ideal case collapses to very few ranges).
	mapping, err := aggregate.MappingFor("rowmajor", shape)
	if err != nil {
		return E7Result{}, err
	}
	cw2 := &countWriter{}
	w2 := ifile.NewWriter(cw2)
	var aggErr error
	agg := aggregate.New(aggregate.Config{
		Mapping:  mapping,
		ElemSize: 4,
		// Match the paper's bounded buffer: aggregation works on subsets
		// "due to memory limitations".
		FlushCells: 1 << 16,
		Emit: func(p keys.AggPair) {
			if err := w2.Append(kc.AggKeyBytes(p.Key), p.Values); err != nil && aggErr == nil {
				aggErr = err
			}
		},
	})
	grid.ForEach(shape, func(c grid.Coord) { agg.Add(c, field.ValueBytes(c)) })
	agg.Close()
	w2.Close()
	if aggErr != nil {
		return E7Result{}, aggErr
	}
	cs := w2.Stats()
	comp := E7Bars{
		Label:        "compressed",
		ValueBytes:   cs.ValBytes,
		KeyBytes:     cs.KeyBytes,
		FileOverhead: cs.FrameBytes + cs.TrailerBytes,
		Records:      cs.Records,
	}
	return E7Result{
		Original:     orig,
		Compressed:   comp,
		ReductionPct: 100 * (1 - float64(comp.Total())/float64(orig.Total())),
	}, nil
}

// E9Result demonstrates the Figs. 5-7 mechanics.
type E9Result struct {
	// Fig6Ranges are the coalesced ranges of the cells {5,6,7,9,10,13}.
	Fig6Ranges []string
	// Fig7Fragments are the overlap-split fragments of [0,10) and [6,14).
	Fig7Fragments []string
}

// E9Mechanics runs the two worked examples from the figures.
func E9Mechanics() E9Result {
	var out E9Result
	mapping, _ := aggregate.MappingFor("rowmajor", grid.NewBox(grid.Coord{0}, []int{16}))
	agg := aggregate.New(aggregate.Config{
		Mapping:  mapping,
		ElemSize: 1,
		Emit: func(p keys.AggPair) {
			out.Fig6Ranges = append(out.Fig6Ranges, p.Key.String())
		},
	})
	for _, i := range []int{5, 6, 7, 9, 10, 13} {
		agg.Add(grid.Coord{i}, []byte{byte(i)})
	}
	agg.Close()

	mk := func(lo, hi uint64) keys.AggPair {
		return keys.AggPair{
			Key:    keys.AggKey{Range: sfcRange(lo, hi)},
			Values: make([]byte, hi-lo),
		}
	}
	for _, f := range keys.SplitOverlaps([]keys.AggPair{mk(0, 10), mk(6, 14)}, 1) {
		out.Fig7Fragments = append(out.Fig7Fragments, f.Key.String())
	}
	return out
}

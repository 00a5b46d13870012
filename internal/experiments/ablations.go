package experiments

import (
	"bytes"
	"math/rand"
	"time"

	"scikey/internal/aggregate"
	"scikey/internal/codec"
	"scikey/internal/grid"
	"scikey/internal/keys"
	"scikey/internal/predictor"
	"scikey/internal/sfc"
	"scikey/internal/workload"
)

func sfcRange(lo, hi uint64) sfc.IndexRange { return sfc.IndexRange{Lo: lo, Hi: hi} }

// A1Row compares one curve's clustering and cost (the Section IV-A
// trade-off: "Moon et al. have shown the Hilbert curve to have better
// clustering properties than the Z-order curve, but the Hilbert curve has
// more overhead").
type A1Row struct {
	Curve string
	// MeanRuns is the average number of contiguous index runs per random
	// query box (lower = better clustering = fewer aggregate keys).
	MeanRuns float64
	// NsPerIndex is the per-point mapping cost.
	NsPerIndex float64
}

// A1CurveComparison samples random boxes in a 2^bits square. The Peano
// curve rides along on the smallest power-of-3 cube covering that square.
func A1CurveComparison(bits, boxes int, seed int64) []A1Row {
	rng := rand.New(rand.NewSource(seed))
	side := 1 << uint(bits)
	type q struct{ x, y, w, h int }
	qs := make([]q, boxes)
	for i := range qs {
		w, h := 2+rng.Intn(14), 2+rng.Intn(14)
		qs[i] = q{rng.Intn(side - w), rng.Intn(side - h), w, h}
	}
	var out []A1Row
	for _, name := range []string{"zorder", "hilbert", "peano", "rowmajor"} {
		c, err := sfc.ForSide(name, 2, side)
		if err != nil {
			panic(err)
		}
		totalRuns := 0
		var cells int64
		t0 := time.Now()
		for _, b := range qs {
			box := grid.NewBox(grid.Coord{b.x, b.y}, []int{b.w, b.h})
			totalRuns += sfc.ClusterCount(c, box)
			cells += box.NumCells()
		}
		dt := time.Since(t0)
		out = append(out, A1Row{
			Curve:      name,
			MeanRuns:   float64(totalRuns) / float64(boxes),
			NsPerIndex: float64(dt.Nanoseconds()) / float64(cells),
		})
	}
	return out
}

// A2Row measures aggregation effectiveness at one flush threshold.
type A2Row struct {
	FlushCells int
	PairsOut   int64
	// BytesPerCell is the aggregate key+range overhead amortized per cell.
	BytesPerCell float64
}

// A2FlushThreshold sweeps buffer sizes over a row-major walk of a square
// grid — "this slightly reduces the effectiveness of aggregation ... but
// the effect should be minimal".
func A2FlushThreshold(side int, thresholds []int) []A2Row {
	domain := grid.NewBox(grid.Coord{0, 0}, []int{side, side})
	mapping, err := aggregate.MappingFor("rowmajor", domain)
	if err != nil {
		panic(err)
	}
	kc := &keys.Codec{Rank: 2, Mode: keys.VarNone}
	var out []A2Row
	for _, th := range thresholds {
		var keyBytes int64
		var pairs int64
		agg := aggregate.New(aggregate.Config{
			Mapping:    mapping,
			ElemSize:   4,
			FlushCells: th,
			Emit: func(p keys.AggPair) {
				pairs++
				keyBytes += int64(len(kc.AggKeyBytes(p.Key)))
			},
		})
		val := []byte{0, 0, 0, 0}
		grid.ForEach(domain, func(c grid.Coord) { agg.Add(c, val) })
		agg.Close()
		out = append(out, A2Row{
			FlushCells:   th,
			PairsOut:     pairs,
			BytesPerCell: float64(keyBytes) / float64(domain.NumCells()),
		})
	}
	return out
}

// A3Row measures how alignment expansion changes key overlap (Section
// IV-C: expanding keys to a predetermined alignment increases the
// probability that overlapping keys are exactly equal, trading padding).
type A3Row struct {
	Align uint64
	// Fragments after overlap splitting (fewer = less splitting work).
	Fragments int
	// EqualPairs counts fragments whose range matches another fragment
	// exactly (reducible together without splitting).
	EqualPairs int
	// PadCells is the alignment padding cost.
	PadCells int64
}

// A3Alignment emulates two neighboring mappers' halo outputs on a 1-D
// curve: mapper A covers rows [0,10), mapper B rows [10,20); both emit a
// halo row into the other's territory. Alignment is applied to each
// mapper's ranges before overlap splitting.
func A3Alignment(aligns []uint64) []A3Row {
	domain := grid.NewBox(grid.Coord{-1}, []int{22})
	mapping, err := aggregate.MappingFor("rowmajor", domain)
	if err != nil {
		panic(err)
	}
	emitRanges := func(lo, hi int, align uint64) ([]keys.AggPair, int64) {
		var pairs []keys.AggPair
		agg := aggregate.New(aggregate.Config{
			Mapping:  mapping,
			ElemSize: 1,
			Align:    align,
			Emit: func(p keys.AggPair) {
				p.Values = bytes.Clone(p.Values) // lent for the call only
				pairs = append(pairs, p)
			},
		})
		for i := lo; i < hi; i++ {
			agg.Add(grid.Coord{i}, []byte{1})
		}
		agg.Close()
		return pairs, agg.Stats().PadCells
	}
	var out []A3Row
	for _, align := range aligns {
		// Mapper A outputs [-1, 11), mapper B outputs [9, 21).
		a, padA := emitRanges(-1, 11, align)
		b, padB := emitRanges(9, 21, align)
		all := append(a, b...)
		sortPairs(all)
		frags := keys.SplitOverlaps(all, 1)
		equal := 0
		for i := range frags {
			for j := range frags {
				if i != j && frags[i].Key.Range == frags[j].Key.Range {
					equal++
					break
				}
			}
		}
		out = append(out, A3Row{Align: align, Fragments: len(frags), EqualPairs: equal, PadCells: padA + padB})
	}
	return out
}

func sortPairs(ps []keys.AggPair) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && keys.CompareAgg(ps[j].Key, ps[j-1].Key) < 0; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// A4Row measures detector sensitivity to one parameter setting.
type A4Row struct {
	Label           string
	SelectionCycle  int
	HitRateNum      int
	ResidualZeroPct float64
	CompressedBytes int64
}

// A4DetectorParams sweeps the selection-cycle length and hit-rate
// threshold over the grid-walk stream, reporting the bzip2-compressed
// residual size for each.
func A4DetectorParams(n int) ([]A4Row, error) {
	data := workload.GridWalkTriples(n)
	type cfg struct {
		label string
		c     predictor.Config
	}
	cfgs := []cfg{
		{"cycle=64", predictor.Config{SelectionCycle: 64}},
		{"cycle=256 (paper)", predictor.Config{SelectionCycle: 256}},
		{"cycle=4096", predictor.Config{SelectionCycle: 4096}},
		{"hit=1/2", predictor.Config{HitRateNum: 1, HitRateDen: 2}},
		{"hit=5/6 (paper)", predictor.Config{HitRateNum: 5, HitRateDen: 6}},
		{"hit=99/100", predictor.Config{HitRateNum: 99, HitRateDen: 100}},
	}
	var out []A4Row
	for _, c := range cfgs {
		res := predictor.NewTransformer(c.c).Forward(make([]byte, 0, len(data)), data)
		zeros := 0
		for _, b := range res {
			if b == 0 {
				zeros++
			}
		}
		comp, err := codec.Compress(codec.Bzip2, res)
		if err != nil {
			return nil, err
		}
		full := c.c
		out = append(out, A4Row{
			Label:           c.label,
			SelectionCycle:  full.SelectionCycle,
			HitRateNum:      full.HitRateNum,
			ResidualZeroPct: 100 * float64(zeros) / float64(len(res)),
			CompressedBytes: int64(len(comp)),
		})
	}
	return out, nil
}

// A7Row measures stride re-adaptation at one settling-window factor.
type A7Row struct {
	// MinActiveFactor is the settling window in stride-lengths (paper: 2).
	MinActiveFactor int
	// ResidualZeroPct over a stream whose record shape changes twice.
	ResidualZeroPct float64
	// CompressedBytes is the bzip2 size of the residual.
	CompressedBytes int64
}

// A7SettlingWindow sweeps the "2s requirement" of Section III-A on a
// variable-transition stream (three variables with different record
// shapes). With the paper's factor of 2, a re-admitted stride pays a full
// period of delta-relearning misses and gets re-evicted before its hit rate
// clears 5/6, so the detector adapts poorly after each transition; larger
// windows fix it at negligible cost on stable streams.
func A7SettlingWindow(factors []int) ([]A7Row, error) {
	var data []byte
	for _, rec := range []struct {
		name string
		n    int
	}{{"a", 4000}, {"muchlongername", 3000}, {"mid", 4500}} {
		unit := make([]byte, 1+len(rec.name)+8+4)
		unit[0] = byte(len(rec.name))
		copy(unit[1:], rec.name)
		for i := 0; i < rec.n; i++ {
			unit[len(unit)-5] = byte(i >> 8)
			unit[len(unit)-4] = byte(i)
			data = append(data, unit...)
		}
	}
	var out []A7Row
	for _, f := range factors {
		res := predictor.NewTransformer(predictor.Config{MaxStride: 60, MinActiveFactor: f}).
			Forward(make([]byte, 0, len(data)), data)
		zeros := 0
		for _, b := range res {
			if b == 0 {
				zeros++
			}
		}
		comp, err := codec.Compress(codec.Bzip2, res)
		if err != nil {
			return nil, err
		}
		out = append(out, A7Row{
			MinActiveFactor: f,
			ResidualZeroPct: 100 * float64(zeros) / float64(len(res)),
			CompressedBytes: int64(len(comp)),
		})
	}
	return out, nil
}

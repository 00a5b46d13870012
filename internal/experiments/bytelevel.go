// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the ablations called out in DESIGN.md. Each experiment
// returns a structured result so the same code backs the expdriver CLI,
// the root benchmarks, and EXPERIMENTS.md.
package experiments

import (
	"bytes"
	"fmt"
	"time"

	"scikey/internal/codec"
	"scikey/internal/grid"
	"scikey/internal/ifile"
	"scikey/internal/keys"
	"scikey/internal/obs"
	"scikey/internal/predictor"
	"scikey/internal/serial"
	"scikey/internal/stats"
	"scikey/internal/workload"
)

// E1Result reproduces the introduction's intermediate-file arithmetic.
type E1Result struct {
	Cells          int64
	DataBytes      int64 // raw value payload (4 bytes per cell)
	IndexFileBytes int64 // variable as 4-byte index
	NameFileBytes  int64 // variable as Text "windspeed1"
	// Overheads are (file-data)/data as percentages: the paper quotes 450%
	// and 625%.
	IndexOverheadPct float64
	NameOverheadPct  float64
	// KeyValueRatio is key bytes / value bytes in name mode (paper: 6.75).
	KeyValueRatio float64
}

// E1IntroOverhead writes one million (key, float32) records through the
// IFile writer in both variable modes. Paper values: 26,000,006 and
// 33,000,006 bytes.
func E1IntroOverhead() E1Result {
	shape := grid.NewBox(grid.Coord{0, 0, 0, 0}, []int{1, 100, 100, 100})
	run := func(mode keys.VarMode) (int64, int64) {
		kc := &keys.Codec{Rank: 4, Mode: mode}
		cw := &countWriter{}
		w := ifile.NewWriter(cw)
		out := serial.NewDataOutput(32)
		val := []byte{0, 0, 0, 0}
		var keyBytes int64
		grid.ForEach(shape, func(c grid.Coord) {
			out.Reset()
			kc.EncodeGrid(out, keys.GridKey{Var: keys.VarRef{Name: "windspeed1", Index: 3}, Coord: c})
			keyBytes += int64(out.Len())
			w.Append(out.Bytes(), val)
		})
		w.Close()
		return cw.n, keyBytes
	}
	idxBytes, _ := run(keys.VarByIndex)
	nameBytes, nameKeyBytes := run(keys.VarByName)
	cells := shape.NumCells()
	data := cells * 4
	return E1Result{
		Cells:            cells,
		DataBytes:        data,
		IndexFileBytes:   idxBytes,
		NameFileBytes:    nameBytes,
		IndexOverheadPct: 100 * float64(idxBytes-data) / float64(data),
		NameOverheadPct:  100 * float64(nameBytes-data) / float64(data),
		KeyValueRatio:    float64(nameKeyBytes) / float64(data),
	}
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// E2Result is the Fig. 2 sequence detection outcome.
type E2Result struct {
	Stride int
	Phase  int
	Delta  byte
	Run    int32
}

// E2SequenceDetection feeds the Fig. 2-style key stream (47-byte records,
// one byte advancing by 0x0a) and reports the detector's best sequence.
// Paper values: δ=0x0a, s=47, φ=34.
func E2SequenceDetection() E2Result {
	const recLen, hot = 47, 34
	tr := predictor.NewTransformer(predictor.Config{})
	rec := make([]byte, recLen)
	copy(rec, "....windspeed1.....")
	for r := 0; r < 60; r++ {
		rec[hot] = byte((0x10 + 0x0a*r) % 256)
		tr.Forward(nil, rec)
	}
	// Advance to the hot phase of the next record.
	rec[hot] = byte((0x10 + 0x0a*60) % 256)
	tr.Forward(nil, rec[:hot])
	s, p, d, run := tr.BestSequence()
	return E2Result{Stride: s, Phase: p, Delta: d, Run: run}
}

// E3Row is one line of the Fig. 3 table.
type E3Row struct {
	Method  string
	Bytes   int64
	Seconds float64
}

// E3ByteLevelCompression reruns Fig. 3: the n^3 grid-walk stream through
// gzip and bzip2 with and without the transform. n=100 reproduces the
// paper's 12,000,000-byte input.
func E3ByteLevelCompression(n int) ([]E3Row, error) {
	data := workload.GridWalkTriples(n)
	rows := []E3Row{{Method: "original", Bytes: int64(len(data))}}
	for _, name := range []string{"gzip", "transform+gzip", "bzip2", "transform+bzip2"} {
		c, err := codec.Get(name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		comp, err := codec.Compress(c, data)
		if err != nil {
			return nil, err
		}
		rows = append(rows, E3Row{Method: name, Bytes: int64(len(comp)), Seconds: time.Since(t0).Seconds()})
	}
	return rows, nil
}

// E4Point is one sample of the Fig. 4 transform-time-vs-size plot.
type E4Point struct {
	Bytes   int64
	Seconds float64
}

// E4Result carries the samples and the linearity check.
type E4Result struct {
	Points []E4Point
	// MBPerSec is the fitted throughput.
	MBPerSec float64
	// R2 should be ~1: "the time to transform the data is linear in the
	// file size".
	R2 float64
}

// E4TransformTimeVsSize sweeps n^3 walks for the given ns and fits
// time ~ size. When ob is non-nil each sweep point records a "transform"
// phase span plus a sample in the scikey_transform_seconds histogram; a nil
// ob disables observability.
func E4TransformTimeVsSize(ns []int, ob *obs.Observer) E4Result {
	hist := ob.R().Histogram("scikey_transform_seconds",
		"Wall time of one forward byte-transform pass", "seconds", obs.DefTimeBuckets)
	var res E4Result
	var xs, ys []float64
	for i, n := range ns {
		data := workload.GridWalkTriples(n)
		tr := predictor.NewTransformer(predictor.Config{})
		dst := make([]byte, 0, len(data))
		sp := ob.T().Start(obs.CatPhase, "transform", 0, i, 0)
		t0 := time.Now()
		tr.Forward(dst, data)
		dt := time.Since(t0).Seconds()
		sp.End()
		hist.Observe(dt)
		res.Points = append(res.Points, E4Point{Bytes: int64(len(data)), Seconds: dt})
		xs = append(xs, float64(len(data)))
		ys = append(ys, dt)
	}
	slope, _, r2 := stats.LinearFit(xs, ys)
	res.R2 = r2
	if slope > 0 {
		res.MBPerSec = 1 / (slope * (1 << 20))
	}
	return res
}

// E4PipelineRow is one codec of the parallel block-pipeline comparison:
// the n^3 walk encoded once and decoded back.
type E4PipelineRow struct {
	Codec    string
	Bytes    int64 // raw input
	OutBytes int64 // encoded
	Seconds  float64
	MBPerSec float64
	// Identical reports that the encoded stream decodes to the input.
	Identical bool
}

// E4ParallelPipeline extends Fig. 4's throughput question to the parallel
// block codec: the same n^3 walk is encoded through the predictive
// transform alone (transform+none) and inside the block pipeline
// (block+transform+none), which codes up to GOMAXPROCS blocks at once. The
// inner codec is none, so the comparison isolates what the pipeline
// parallelizes — the transform itself — from generic-codec cost.
func E4ParallelPipeline(n int) ([]E4PipelineRow, error) {
	data := workload.GridWalkTriples(n)
	rows := make([]E4PipelineRow, 0, 2)
	for _, c := range []codec.Codec{codec.NewTransform(codec.None), codec.NewBlock(codec.NewTransform(codec.None))} {
		t0 := time.Now()
		comp, err := codec.Compress(c, data)
		dt := time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name(), err)
		}
		back, err := codec.Decompress(c, comp)
		if err != nil {
			return nil, fmt.Errorf("%s decode: %w", c.Name(), err)
		}
		row := E4PipelineRow{
			Codec:     c.Name(),
			Bytes:     int64(len(data)),
			OutBytes:  int64(len(comp)),
			Seconds:   dt,
			Identical: bytes.Equal(back, data),
		}
		if dt > 0 {
			row.MBPerSec = float64(len(data)) / dt / (1 << 20)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// E5Result compares stride-selection strategies (Section III's discussion).
type E5Result struct {
	// Compressed sizes (bzip2 of the residual) under each strategy.
	FixedStride12Bytes int64
	ExhaustiveBytes    int64
	AdaptiveBytes      int64
	// Slowdown of brute force relative to adaptive at two stride caps
	// (paper: ~4x at 100, ~17x at 1000).
	Slowdown100  float64
	Slowdown1000 float64
}

// E5StrideStrategies runs the three detection modes over the n^3 walk and
// times exhaustive-vs-adaptive at stride caps 100 and 1000.
func E5StrideStrategies(n int) (E5Result, error) {
	data := workload.GridWalkTriples(n)
	residualSize := func(cfg predictor.Config) (int64, error) {
		res := predictor.NewTransformer(cfg).Forward(make([]byte, 0, len(data)), data)
		comp, err := codec.Compress(codec.Bzip2, res)
		return int64(len(comp)), err
	}
	var out E5Result
	var err error
	if out.FixedStride12Bytes, err = residualSize(predictor.Config{Mode: predictor.Fixed, Strides: []int{12}}); err != nil {
		return out, err
	}
	if out.ExhaustiveBytes, err = residualSize(predictor.Config{Mode: predictor.Exhaustive, MaxStride: 100}); err != nil {
		return out, err
	}
	if out.AdaptiveBytes, err = residualSize(predictor.Config{Mode: predictor.Adaptive, MaxStride: 100}); err != nil {
		return out, err
	}

	timeMode := func(cfg predictor.Config) float64 {
		tr := predictor.NewTransformer(cfg)
		dst := make([]byte, 0, len(data))
		t0 := time.Now()
		tr.Forward(dst, data)
		return time.Since(t0).Seconds()
	}
	out.Slowdown100 = timeMode(predictor.Config{Mode: predictor.Exhaustive, MaxStride: 100}) /
		timeMode(predictor.Config{Mode: predictor.Adaptive, MaxStride: 100})
	out.Slowdown1000 = timeMode(predictor.Config{Mode: predictor.Exhaustive, MaxStride: 1000}) /
		timeMode(predictor.Config{Mode: predictor.Adaptive, MaxStride: 1000})
	return out, nil
}

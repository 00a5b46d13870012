package mapreduce

import (
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"scikey/internal/codec"
	"scikey/internal/ifile"
)

// benchReduceSegments builds nSegs interleaved sorted runs totaling n
// records, coded with c, the shape a reducer's fetched map outputs arrive
// in: segment s carries map task s's provenance.
func benchReduceSegments(b *testing.B, n, nSegs int, c codec.Codec) []segment {
	b.Helper()
	all := benchPairs(n)
	segs := make([]segment, 0, nSegs)
	for s := 0; s < nSegs; s++ {
		var pairs []KV
		for i := s; i < n; i += nSegs {
			pairs = append(pairs, all[i])
		}
		seg, err := writeSegment(pairs, c)
		if err != nil {
			b.Fatal(err)
		}
		seg.src = s
		segs = append(segs, seg)
	}
	return segs
}

// heapSampler watches HeapAlloc from a background goroutine so a benchmark
// can report its peak live heap over a baseline. Sampling cannot catch every
// transient spike, but a reduce path that materializes the whole partition
// holds its peak for most of the run — exactly what the samples see.
type heapSampler struct {
	base uint64
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &heapSampler{base: ms.HeapAlloc, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > s.peak.Load() {
					s.peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()
	return s
}

// finish stops sampling and returns peak bytes over the baseline.
func (s *heapSampler) finish() float64 {
	close(s.stop)
	<-s.done
	peak := s.peak.Load()
	if peak < s.base {
		return 0
	}
	return float64(peak - s.base)
}

// measureReduce times b.N runs of op, then reports peak-B from untimed runs
// of it (at least one, at least 10 ms): the sampler stops the world for
// every MemStats read, which inside the timed loop would be priced as the
// reduce path's own time.
func measureReduce(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	sampler := startHeapSampler()
	for start := time.Now(); ; {
		op()
		if time.Since(start) >= 10*time.Millisecond {
			break
		}
	}
	b.ReportMetric(sampler.finish(), "peak-B")
}

// BenchmarkReducePath compares the streaming reduce pipeline against the
// materialized test oracle (mergeSegments, reference_test.go) at two
// partition sizes. allocs/op is the gated
// headline; peak-B (sampled live heap over baseline, from untimed runs) is
// the memory-model evidence — flat across sizes for stream, scaling with the partition for
// reference. coded runs transform+zlib segments through the production
// sequence of a coded reduce attempt: the decode-once validation scan, the
// raw merge over its plaintext, then groupReduce; its peak-B includes the
// partition's plaintext, which the attempt holds by design. grid reduces
// SimpleKeyJob's keys (gridSegments, 36 rows: about 8 300 records in eight
// bands) with the job's key order, RawCompareGrid and GridWords, so the
// merge compares and groupReduce groups by cached words; the byte keys of
// the other rows have no words. The reducer emits from one reused buffer,
// so allocs/op counts the engine's allocations, not one per group of its own.
func BenchmarkReducePath(b *testing.B) {
	cmp := func(a, b []byte) int { return compareBytes(a, b) }
	out := make([]byte, 1)
	red := ReducerFunc(func(ctx *TaskContext, key []byte, values [][]byte, emit Emit) error {
		var n byte
		for _, v := range values {
			n += v[len(v)-1]
		}
		out[0] = n
		emit(key, out)
		return nil
	})
	for _, size := range []struct {
		name string
		n    int
	}{{"8k", 8192}, {"64k", 65536}} {
		segs := benchReduceSegments(b, size.n, 8, codec.None)
		env := readEnv{codec: codec.None, part: -1}
		var iw ifile.Writer
		emit := func(k, v []byte) {
			if err := iw.Append(k, v); err != nil {
				b.Fatal(err)
			}
		}
		// reduce is a raw reduce attempt's final merge and grouping over level.
		reduce := func(b *testing.B, level []segment, ord keyOrder) {
			ctx := &TaskContext{counters: &Counters{}}
			m, err := newMergeStream(level, env, ord)
			if err != nil {
				b.Fatal(err)
			}
			iw.Reset(io.Discard)
			if err := groupReduce(ctx, reduceStream{m: m}, ord.compare, red, emit, nil); err != nil {
				b.Fatal(err)
			}
			m.close()
		}
		b.Run("stream/"+size.name, func(b *testing.B) {
			measureReduce(b, func() { reduce(b, segs, keyOrder{compare: cmp}) })
		})
		if size.name == "8k" {
			kc, grid := gridSegments(b, 36, 8)
			b.Run("grid/"+size.name, func(b *testing.B) {
				measureReduce(b, func() { reduce(b, grid, keyOrder{kc.RawCompareGrid, kc.GridWords}) })
			})
			cenv := readEnv{codec: codec.NewTransform(codec.Zlib), part: -1}
			coded := benchReduceSegments(b, size.n, 8, cenv.codec)
			b.Run("coded/"+size.name, func(b *testing.B) {
				measureReduce(b, func() {
					level, _, err := validateSegments(coded, cenv)
					if err != nil {
						b.Fatal(err)
					}
					reduce(b, level, keyOrder{compare: cmp})
					for _, s := range level {
						recycleSegment(s)
					}
				})
			})
		}
		b.Run("reference/"+size.name, func(b *testing.B) {
			measureReduce(b, func() {
				ctx := &TaskContext{counters: &Counters{}}
				pairs, err := mergeSegments(segs, env, cmp)
				if err != nil {
					b.Fatal(err)
				}
				iw.Reset(io.Discard)
				src := &sliceStream{pairs: pairs}
				if err := refGroupReduce(ctx, src, cmp, red, emit, nil); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

package mapreduce

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"scikey/internal/codec"
	"scikey/internal/keys"
)

// benchPairs builds n sorted key/value pairs shaped like the paper's
// serialized-key workload: fixed-width big-endian-ish keys with small
// values, so the transform codec has structure to exploit.
func benchPairs(n int) []KV {
	pairs := make([]KV, n)
	for i := 0; i < n; i++ {
		key := make([]byte, 12)
		key[0] = byte(i >> 24)
		key[1] = byte(i >> 16)
		key[2] = byte(i >> 8)
		key[3] = byte(i)
		copy(key[4:], "gridkey.")
		val := make([]byte, 8)
		val[7] = byte(i)
		pairs[i] = KV{Key: key, Value: val}
	}
	return pairs
}

// BenchmarkWriteSegmentPooled measures the steady-state segment write path:
// one sorted spill buffer encoded through the codec into IFile form, with
// the segment's backing storage recycled the way the map-side spill/merge
// loop does. allocs/op is the headline metric.
func BenchmarkWriteSegmentPooled(b *testing.B) {
	pairs := benchPairs(4096)
	for _, name := range []string{"none", "gzip", "transform+gzip"} {
		b.Run(name, func(b *testing.B) {
			c, err := codec.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			var bytes int64
			for _, p := range pairs {
				bytes += int64(len(p.Key) + len(p.Value))
			}
			b.SetBytes(bytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seg, err := writeSegment(pairs, c)
				if err != nil {
					b.Fatal(err)
				}
				recycleSegment(seg)
			}
		})
	}
}

// BenchmarkMapSpillPipeline measures one full map attempt with several
// spills plus the final per-partition merge — the pipelined hot path of the
// map side. The spill buffer is kept small so a run produces many spill
// segments per partition and real merge work.
func BenchmarkMapSpillPipeline(b *testing.B) {
	const records = 20000
	for _, name := range []string{"gzip", "transform+gzip"} {
		b.Run(name, func(b *testing.B) {
			c, err := codec.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			job := &Job{
				Name:             "spill-bench",
				NumReducers:      4,
				Compare:          func(a, b []byte) int { return compareBytes(a, b) },
				Partition:        func(key []byte, n int) int { return int(key[3]) % n },
				MapOutputCodec:   c,
				SpillBufferBytes: 64 << 10,
			}
			pairs := benchPairs(records)
			var bytes int64
			for _, p := range pairs {
				bytes += int64(len(p.Key) + len(p.Value))
			}
			attempt := func() {
				t := newMapTask(context.Background(), job, 0, 0)
				t.parts = getPartBuffers(job.NumReducers) // as run does
				for _, p := range pairs {
					t.emit(p.Key, p.Value)
				}
				if err := t.finalize(); err != nil {
					b.Fatal(err)
				}
			}
			// Pre-warm the pools so allocs/op counts the code, not what the
			// pools happened to hold: more buffer sets than an attempt holds
			// at once (collecting, queued, spilling) plus the one each
			// processor's private pool slot can strand, each grown to a
			// whole spill so no partition grows inside the timed loop; a
			// warm-up attempt for the segment buffers and goroutines; a
			// collection, so every run starts from the same heap; and one
			// more attempt, which rebuilds the pools' per-processor queues
			// the collection emptied.
			sets := make([]*partSet, 8)
			for i := range sets {
				sets[i] = getPartBuffers(job.NumReducers)
				for p := range sets[i].bufs {
					pb := &sets[i].bufs[p]
					pb.arena = slices.Grow(pb.arena, 2*job.SpillBufferBytes)
					pb.refs = slices.Grow(pb.refs, job.SpillBufferBytes)
				}
			}
			for _, set := range sets {
				putPartBuffers(set)
			}
			attempt()
			runtime.GC()
			attempt()
			b.SetBytes(bytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				attempt()
			}
		})
	}
}

// BenchmarkMergeSegments measures what a coded reduce attempt does with
// the gzip segments it fetched, the other half of the shuffle hot path:
// decode and check them (validateSegments), then k-way merge the plaintext
// in place.
func BenchmarkMergeSegments(b *testing.B) {
	const nSegs = 8
	c, err := codec.Get("gzip")
	if err != nil {
		b.Fatal(err)
	}
	var segs []segment
	for s := 0; s < nSegs; s++ {
		pairs := benchPairs(2048)
		seg, err := writeSegment(pairs, c)
		if err != nil {
			b.Fatal(err)
		}
		seg.src = s // a fetched map output, which validation never recycles
		segs = append(segs, seg)
	}
	cmp := func(a, b []byte) int { return compareBytes(a, b) }
	benchMerge(b, segs, readEnv{codec: c, part: -1}, keyOrder{compare: cmp})
}

// BenchmarkMergeGrid merges one reduce attempt's raw final level of
// SimpleKeyJob keys (gridSegments) with the job's key order: words with
// SortWords set, so the merge heap compares cached words, and compare with
// it nil, one RawCompareGrid call per comparison.
func BenchmarkMergeGrid(b *testing.B) {
	kc, segs := gridSegments(b, 64, 8)
	for _, path := range []string{"words", "compare"} {
		b.Run(path, func(b *testing.B) {
			ord := keyOrder{compare: kc.RawCompareGrid}
			if path == "words" {
				ord.words = kc.GridWords
			}
			benchMerge(b, segs, readEnv{codec: codec.None, part: -1}, ord)
		})
	}
}

// benchMerge drains one merge over segs per iteration the way mergeDown's
// passes and the reduce stream consume theirs: each record is used before
// its iterator advances, so none is copied. Coded segments are decoded
// first, as validateSegments decodes a coded level, and the plaintext is
// recycled once the merge is closed.
func benchMerge(b *testing.B, segs []segment, env readEnv, ord keyOrder) {
	var bytes, records int64
	for _, s := range segs {
		bytes += int64(len(s.data))
		records += s.records
	}
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		level := segs
		if env.codec != codec.None {
			var err error
			if level, _, err = validateSegments(segs, env); err != nil {
				b.Fatal(err)
			}
		}
		m, err := newMergeStream(level, env, ord)
		if err != nil {
			b.Fatal(err)
		}
		var n int64
		for {
			kv, err := m.pull()
			if err != nil {
				b.Fatal(err)
			}
			if kv == nil {
				break
			}
			n++
		}
		m.close()
		if env.codec != codec.None {
			for _, s := range level {
				recycleSegment(s)
			}
		}
		if n != records {
			b.Fatalf("merged %d records, want %d", n, records)
		}
	}
}

// gridSegments is what one reducer of SimpleKeyJob fetches from n map
// tasks: simpleKeyPartition's keys for a grid of rows × 128 cells (about
// 230 records a row, 14 700 at 64 rows), cut into n row bands in arrival
// order — the map tasks' splits — each spill-sorted and written raw.
func gridSegments(b *testing.B, rows, n int) (*keys.Codec, []segment) {
	kc, pb := simpleKeyPartition(rows, 128)
	job := &Job{Compare: kc.RawCompareGrid, SortWords: kc.GridWords}
	var ws wordSort
	segs := make([]segment, n)
	for s := range segs {
		band := &partBuffer{arena: pb.arena, refs: slices.Clone(pb.refs[s*len(pb.refs)/n : (s+1)*len(pb.refs)/n])}
		job.sortPartition(band, &ws)
		seg, err := writeSegmentStream(&refStream{pb: band}, codec.None, band.sizeBound())
		if err != nil {
			b.Fatal(err)
		}
		seg.src = s
		segs[s] = seg
	}
	return kc, segs
}

func compareBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

package mapreduce

import (
	"bytes"
	"compress/zlib"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"testing"

	"scikey/internal/codec"
	"scikey/internal/ifile"
)

// countingCodec wraps a codec and counts successful reader constructions —
// the instrument of the leak-regression tests. Each instance gets its own
// engine-level reader pool (the pools are keyed per codec instance), so the
// counts see exactly this test's traffic: once the pool is warm, a fixed
// merge workload must construct zero new readers, however it fails. Writers
// are counted twice over: constructions (writersCreated, the leak signal)
// and opens (writers — constructions plus pooled rebinds, i.e. how many
// streams were coded). decoded sums the plaintext bytes every reader
// yielded: how many times the job decoded what it shuffled; encoded sums
// the plaintext bytes every writer took.
type countingCodec struct {
	inner          codec.Codec
	created        atomic.Int64
	writers        atomic.Int64
	writersCreated atomic.Int64
	decoded        atomic.Int64
	encoded        atomic.Int64
}

func (c *countingCodec) Name() string { return "counting+" + c.inner.Name() }

func (c *countingCodec) NewWriter(w io.Writer) io.WriteCloser {
	c.writers.Add(1)
	c.writersCreated.Add(1)
	return &countingWriter{c.inner.NewWriter(w), c}
}

// countingWriter forwards Reset so the wrapped writer stays poolable; every
// codec the tests wrap has a resettable writer.
type countingWriter struct {
	io.WriteCloser
	c *countingCodec
}

func (w *countingWriter) Reset(dst io.Writer) {
	w.c.writers.Add(1)
	w.WriteCloser.(interface{ Reset(io.Writer) }).Reset(dst)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.WriteCloser.Write(p)
	w.c.encoded.Add(int64(n))
	return n, err
}

func (c *countingCodec) NewReader(r io.Reader) (io.ReadCloser, error) {
	rc, err := c.inner.NewReader(r)
	if err != nil {
		return nil, err
	}
	c.created.Add(1)
	cr := &countingReader{rc, c}
	switch rc.(type) {
	case interface{ Reset(io.Reader) error }, zlib.Resetter:
		return &resettableReader{cr}, nil
	}
	return cr, nil
}

// leakIters / leakSlack size the leak assertions: after warmup each failing
// run is repeated leakIters times, and the tests tolerate up to leakSlack
// fresh reader constructions. Under the race detector sync.Pool drops ~25%
// of Puts at random, so a leak-free run still constructs ~1-2 readers per
// iteration (~36 total, ~5 constructions of standard deviation); a leak
// strands every reader in the heap, ~5-6 per iteration (≥120 total). The
// slack sits >4 sigma above the noise and far below the leak signature.
const (
	leakIters = 24
	leakSlack = 3 * leakIters
)

// countingReader counts the bytes it yields.
type countingReader struct {
	io.ReadCloser
	c *countingCodec
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	r.c.decoded.Add(int64(n))
	return n, err
}

// resettableReader forwards Reset so a resettable wrapped reader stays
// poolable; a bzip2 reader is not one.
type resettableReader struct{ *countingReader }

func (r *resettableReader) Reset(src io.Reader) error {
	if z, ok := r.ReadCloser.(zlib.Resetter); ok {
		return z.Reset(src, nil)
	}
	return r.ReadCloser.(interface{ Reset(io.Reader) error }).Reset(src)
}

// leakSegments builds n interleaved sorted segments of m records each.
func leakSegments(t *testing.T, c codec.Codec, n, m int, keyf func(i, s int) string) []segment {
	t.Helper()
	segs := make([]segment, 0, n)
	for s := 0; s < n; s++ {
		pairs := make([]KV, 0, m)
		for i := 0; i < m; i++ {
			pairs = append(pairs, KV{Key: []byte(keyf(i, s)), Value: []byte{byte(s), byte(i)}})
		}
		seg, err := writeSegment(pairs, c)
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, seg)
	}
	return segs
}

// TestMergePassDecodeErrorReleasesReaders: a merge pass over coded segments
// decodes its batch whole (validateSegments) before it merges, and a
// segment that fails to decode — partway through its stream, or at its
// codec header — fails the pass with an ErrCorruptSegment naming that
// segment's producer. Every codec reader and decoded buffer goes back to
// its pool: repeated failing passes run from the warm reader pool and
// leave decodedLive where it was.
func TestMergePassDecodeErrorReleasesReaders(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(data []byte)
	}{
		{"mid-stream", func(data []byte) {
			mid := len(data) / 2
			for i := range 8 {
				data[mid+i] ^= 0xA5
			}
		}},
		{"header", func(data []byte) {
			data[0] ^= 0xFF
			data[1] ^= 0xFF
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cc := &countingCodec{inner: codec.Gzip}
			segs := leakSegments(t, cc, 6, 40, func(i, s int) string {
				return fmt.Sprintf("k%03d-%d", i, s)
			})
			// Fetched map outputs: a pass never recycles them, so every
			// run reads the same bytes.
			for i := range segs {
				segs[i].src = i
			}
			tc.damage(segs[5].data)
			live := decodedLive.Load()
			env := readEnv{codec: cc, part: 0}
			run := func() {
				_, err := mergeDown(slices.Clone(segs), env, keyOrder{compare: bytes.Compare}, 6, 1, cc, nil)
				var ce *ErrCorruptSegment
				if !errors.As(err, &ce) || ce.MapTask != 5 {
					t.Fatalf("merge pass error = %v, want an ErrCorruptSegment naming map 5", err)
				}
			}
			run() // warm the pools
			base := cc.created.Load()
			for range leakIters {
				run()
			}
			if grown := cc.created.Load() - base; grown > leakSlack {
				t.Errorf("codec readers leaked: %d constructed across %d failing passes, want ~0", grown, leakIters)
			}
			if n := decodedLive.Load() - live; n != 0 {
				t.Errorf("%d decoded buffers never went back to the pool", n)
			}
		})
	}
}

// TestMergeAdvanceErrorReleasesReaders: an engine-internal raw segment (a
// map-side spill) is merged in place without a scan first, so its
// corruption surfaces partway through the merge. The corrupt segment's keys
// sort first, so it fails while the other five iterators are all still
// live in the heap; pull must report the error and release every one of
// them.
func TestMergeAdvanceErrorReleasesReaders(t *testing.T) {
	segs := leakSegments(t, codec.None, 6, 40, func(i, s int) string {
		if s == 5 {
			return fmt.Sprintf("a%03d", i)
		}
		return fmt.Sprintf("z%03d-%d", i, s)
	})
	mid := len(segs[5].data) / 2
	for i := range 8 {
		segs[5].data[mid+i] ^= 0xA5
	}
	m, err := newMergeStream(segs, readEnv{codec: codec.None}, keyOrder{compare: bytes.Compare})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m.h.its); n != 6 {
		t.Fatalf("%d iterators open, want 6", n)
	}
	for {
		kv, err := m.pull()
		if err != nil {
			break
		}
		if kv == nil {
			t.Fatal("merge reached end of stream over a corrupt segment")
		}
		if kv.Key[0] != 'a' {
			t.Fatalf("read %q before the corrupt segment failed", kv.Key)
		}
	}
	if !m.closed || m.h.its != nil {
		t.Errorf("failed merge kept %d iterators (closed=%v), want all released", len(m.h.its), m.closed)
	}
	m.close() // the caller's close after a failed pull is a no-op
}

// TestMergeStreamAbandonReleasesReaders: closing a partially-drained
// merge over a decoded level, as a failed or canceled reduce attempt does,
// and recycling the level leaves no decoded buffer out of the pool, and
// the codec readers that decoded it are back in theirs.
func TestMergeStreamAbandonReleasesReaders(t *testing.T) {
	cc := &countingCodec{inner: codec.Gzip}
	segs := leakSegments(t, cc, 5, 30, func(i, s int) string {
		return fmt.Sprintf("k%03d-%d", i, s)
	})
	for i := range segs {
		segs[i].src = i
	}
	env := readEnv{codec: cc, part: 0}
	live := decodedLive.Load()
	run := func() {
		level, _, err := validateSegments(segs, env)
		if err != nil {
			t.Fatal(err)
		}
		m, err := newMergeStream(level, env, keyOrder{compare: bytes.Compare})
		if err != nil {
			t.Fatal(err)
		}
		for range 3 {
			if kv, err := m.pull(); kv == nil {
				t.Fatalf("pull: end of stream, err=%v", err)
			}
		}
		if n := decodedLive.Load() - live; n != int64(len(segs)) {
			t.Fatalf("%d decoded buffers live mid-merge, want %d", n, len(segs))
		}
		m.close()
		for _, s := range level {
			recycleSegment(s)
		}
	}
	run()
	base := cc.created.Load()
	for range leakIters {
		run()
	}
	if grown := cc.created.Load() - base; grown > leakSlack {
		t.Errorf("codec readers leaked: %d constructed across %d abandoned merges, want ~0", grown, leakIters)
	}
	if n := decodedLive.Load() - live; n != 0 {
		t.Errorf("%d decoded buffers never went back to the pool", n)
	}
}

// TestSortSegmentsBySizeStable pins the smallest-first, stable contract the
// merge pass depends on (equal-size segments keep their arrival order, so
// passes stay deterministic).
func TestSortSegmentsBySizeStable(t *testing.T) {
	sizes := []int{5, 3, 5, 0, 3}
	segs := make([]segment, len(sizes))
	for i, n := range sizes {
		segs[i] = segment{data: make([]byte, n), records: int64(i)}
	}
	sortSegmentsBySize(segs)
	want := []int64{3, 1, 4, 0, 2}
	for i, w := range want {
		if segs[i].records != w {
			t.Fatalf("position %d: segment %d, want %d (order %v)", i, segs[i].records, w, segs)
		}
	}
}

// TestMergeDownManySegments drives the multi-pass merge with far more
// segments than the factor — the regime where the per-pass re-sort runs
// repeatedly — and checks the surviving segment holds every record in
// order.
func TestMergeDownManySegments(t *testing.T) {
	var want []string
	var segs []segment
	for s := 0; s < 40; s++ {
		m := s%7 + 1
		pairs := make([]KV, 0, m)
		for i := 0; i < m; i++ {
			k := fmt.Sprintf("key-%02d-%02d", i, s)
			pairs = append(pairs, KV{Key: []byte(k), Value: []byte{byte(s)}})
			want = append(want, k)
		}
		seg, err := writeSegment(pairs, codec.None)
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, seg)
	}
	env := readEnv{codec: codec.None}
	var passes int
	out, err := mergeDown(segs, env, keyOrder{compare: bytes.Compare}, 3, 1, env.codec, func(read, written, records int64) {
		passes++
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("mergeDown left %d segments, want 1", len(out))
	}
	if passes < 19 {
		t.Errorf("only %d merge passes for 40 segments at factor 3", passes)
	}
	pairs, err := mergeSegments(out, env, bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != len(want) {
		t.Fatalf("merged %d records, want %d", len(pairs), len(want))
	}
	for i := 1; i < len(pairs); i++ {
		if bytes.Compare(pairs[i-1].Key, pairs[i].Key) > 0 {
			t.Fatalf("output out of order at %d: %q > %q", i, pairs[i-1].Key, pairs[i].Key)
		}
	}
	got := make(map[string]int)
	for _, p := range pairs {
		got[string(p.Key)]++
	}
	for _, k := range want {
		if got[k] == 0 {
			t.Fatalf("record %q missing from merged output", k)
		}
		got[k]--
	}
}

// writeSegment encodes sorted pairs through the codec into IFile form: a
// test-side producer of segments, over the encodeSegment the spill and merge
// paths share.
func writeSegment(pairs []KV, c codec.Codec) (segment, error) {
	return writeSegmentStream(&sliceStream{pairs: pairs}, c, segmentSizeBound(pairs))
}

// segmentSizeBound upper-bounds the encoded size of pairs, as
// partBuffer.sizeBound does for a spill buffer.
func segmentSizeBound(pairs []KV) int {
	est := ifile.TrailerLen
	for _, p := range pairs {
		est += len(p.Key) + len(p.Value) + ifile.RecordOverhead(len(p.Key), len(p.Value))
	}
	return est
}

// sliceStream adapts an in-memory sorted run to kvStream.
type sliceStream struct {
	pairs []KV
	pos   int
}

func (s *sliceStream) pull() (*KV, error) {
	if s.pos >= len(s.pairs) {
		return nil, nil
	}
	s.pos++
	return &s.pairs[s.pos-1], nil
}

func (s *sliceStream) close() {}

// TestGroupReduceAllocsIndependentOfGroups: a reduce attempt's allocations
// do not grow with its group count, straight off the merge or through a
// merge transform cut at every group. The group arena, the values slice
// handed to Reduce and the transform's window arena and slice are reused
// from group to group, under the Reducer contract TestReducerRetention
// enforces.
func TestGroupReduceAllocsIndependentOfGroups(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	cmp := func(a, b []byte) int { return compareBytes(a, b) }
	var sum byte
	red := ReducerFunc(func(ctx *TaskContext, key []byte, values [][]byte, emit Emit) error {
		for _, v := range values {
			sum += v[0]
		}
		return nil
	})
	for _, transform := range []bool{false, true} {
		name := "merge"
		if transform {
			name = "transform"
		}
		allocs := func(groups int) float64 {
			const perGroup = 9
			pairs := make([]KV, 0, groups*perGroup)
			for g := 0; g < groups; g++ {
				key := fmt.Appendf(nil, "key-%08d", g)
				for v := 0; v < perGroup; v++ {
					pairs = append(pairs, KV{Key: key, Value: []byte{byte(v)}})
				}
			}
			seg, err := writeSegment(pairs, codec.None)
			if err != nil {
				t.Fatal(err)
			}
			ctx := &TaskContext{counters: &Counters{}}
			return testing.AllocsPerRun(5, func() {
				m, err := newMergeStream([]segment{seg}, readEnv{codec: codec.None}, keyOrder{compare: cmp})
				if err != nil {
					t.Fatal(err)
				}
				s := reduceStream{m: m}
				if transform {
					identity := func(w []KV) []KV { return w }
					s.t = &transformStream{src: m, transform: identity, cut: keyChangeCut(), splits: &Counter{}}
				}
				if err := groupReduce(ctx, s, cmp, red, nil, nil); err != nil {
					t.Fatal(err)
				}
				m.close()
			})
		}
		small, large := allocs(1<<10), allocs(8<<10)
		t.Logf("%s: allocs per attempt: %.0f at 1k groups, %.0f at 8k", name, small, large)
		if large > small+1 {
			t.Errorf("%s: groupReduce allocates %.0f times over 8k groups but %.0f over 1k: something is allocated per group", name, large, small)
		}
	}
}

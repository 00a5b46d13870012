package mapreduce

import (
	"bytes"
	"fmt"
	"testing"

	"scikey/internal/codec"
)

// dupTransform duplicates every pair — a merge transform whose output is
// decomposable under any stream windowing, so the differential suite can
// compare whole-stream and windowed execution on the same job.
func dupTransform(pairs []KV) []KV {
	out := make([]KV, 0, 2*len(pairs))
	for _, p := range pairs {
		out = append(out, p, p)
	}
	return out
}

// keyChangeCut cuts the merged stream at every key change: valid for any
// per-record transform, and the tightest possible window, so it exercises
// the transform adapter's pending-record handoff hard.
func keyChangeCut() func(key []byte) bool {
	var last []byte
	started := false
	return func(k []byte) bool {
		cut := started && !bytes.Equal(last, k)
		last = append(last[:0], k...)
		started = true
		return cut
	}
}

// diffCase is one engine-vs-oracle configuration.
type diffCase struct {
	name      string
	codec     codec.Codec
	comb      bool
	transform bool // install dupTransform
	cut       bool // ... with the per-key window cut
	spec      string
	policy    RetryPolicy
	shuffle   *ShuffleConfig
	reducers  int
	docs      []string
	// routeAll0, when set, sends every key to partition 0 so the other
	// partitions exercise the empty-stream path end to end.
	routeAll0 bool
	parallel  int
}

func (dc diffCase) build(t *testing.T) *Job {
	t.Helper()
	fs := testFS()
	docs := dc.docs
	if docs == nil {
		docs = faultDocs
	}
	reducers := dc.reducers
	if reducers == 0 {
		reducers = 2
	}
	job := wordCountJob(fs, docs, reducers, dc.comb)
	job.MapOutputCodec = dc.codec
	job.Retry = dc.policy
	job.Shuffle = dc.shuffle
	job.Faults = mustInjector(t, dc.spec)
	if dc.parallel > 0 {
		job.Parallelism = dc.parallel
	}
	if dc.transform {
		job.MergeTransform = dupTransform
		if dc.cut {
			job.MergeCut = keyChangeCut
		}
	}
	if dc.routeAll0 {
		job.Partition = func([]byte, int) int { return 0 }
	}
	return job
}

// runDiff executes the case through the engine and returns the raw
// per-partition output bytes plus the payload counters the engine and the
// oracle must agree on.
func runDiff(t *testing.T, dc diffCase) ([]string, map[string]int64) {
	t.Helper()
	job := dc.build(t)
	res, err := Run(job)
	if err != nil {
		t.Fatalf("%s: %v", dc.name, err)
	}
	return readRawOutputs(t, job.FS, res.OutputPaths), diffCounters(res.Counters)
}

// refDiff is runDiff through the materialize-then-group oracle.
func refDiff(t *testing.T, dc diffCase) ([]string, map[string]int64) {
	t.Helper()
	outs, c := referenceRun(t, dc.build(t))
	return outs, diffCounters(c)
}

func diffCounters(c *Counters) map[string]int64 {
	return map[string]int64{
		"ReduceInputRecords":  c.ReduceInputRecords.Value(),
		"ReduceInputGroups":   c.ReduceInputGroups.Value(),
		"ReduceOutputRecords": c.ReduceOutputRecords.Value(),
		"ReduceOutputBytes":   c.ReduceOutputBytes.Value(),
		"OverlapKeySplits":    c.OverlapKeySplits.Value(),
		"SpilledRecords":      c.SpilledRecords.Value(),
		"MapOutputRecords":    c.MapOutputRecords.Value(),
	}
}

// TestStreamingReduceDifferential proves the engine's streaming reduce path
// emits byte-identical output files — and identical payload counters — to
// the materialize-then-group oracle (referenceRun) across codecs, combiner,
// merge transforms (whole-stream and windowed), chaos schedules, and
// degenerate partitions. The oracle always runs fault-free over the
// in-memory hand-off, so the chaos cases also pin that recovery leaves the
// payload untouched.
func TestStreamingReduceDifferential(t *testing.T) {
	manyDocs := append(append([]string(nil), faultDocs...),
		"sphinx of black quartz judge my vow",
		"the five boxing wizards jump quickly",
		"jackdaws love my big sphinx of quartz",
	)
	cases := []diffCase{
		{name: "codec-none", codec: nil},
		{name: "codec-gzip", codec: codec.Gzip},
		{name: "codec-bzip2", codec: codec.Bzip2},
		{name: "combiner", codec: codec.Gzip, comb: true},
		{name: "transform-whole-stream", codec: codec.Gzip, transform: true},
		{name: "transform-windowed", codec: nil, transform: true, cut: true},
		{name: "transform-windowed-bzip2", codec: codec.Bzip2, transform: true, cut: true},
		{name: "multi-pass-merge", codec: nil, docs: manyDocs, reducers: 1},
		{name: "single-segment", codec: nil, docs: faultDocs[:1], reducers: 1},
		{name: "empty-partitions", codec: nil, reducers: 3, routeAll0: true},
		{name: "empty-partitions-transform", codec: nil, reducers: 3, routeAll0: true,
			transform: true, cut: true},
		{name: "chaos-local", codec: codec.Gzip, transform: true,
			spec:   "seed=9;map:1:error@0;segment:0.1:corrupt@0;codec:2:error@0",
			policy: RetryPolicy{MaxAttempts: 3}},
		// The coded final level is decoded once, by the validation scan,
		// and merged raw; retries re-read the intact fetched outputs.
		{name: "chaos-transform-zlib", codec: codec.NewTransform(codec.Zlib),
			spec:   "seed=9;map:1:error@0;segment:0.1:corrupt@0;codec:2:error@0",
			policy: RetryPolicy{MaxAttempts: 3}},
		{name: "chaos-block-transform-zlib", codec: decodeOnceCodecs()[1].c, transform: true, cut: true,
			spec:   "seed=5;segment:2.0:corrupt@0;codec:0:error@0",
			policy: RetryPolicy{MaxAttempts: 3}},
		{name: "chaos-net", codec: nil, parallel: 2,
			shuffle: &ShuffleConfig{Mode: ShuffleTCP, Nodes: 2, FetchAttempts: 4},
			spec:    "seed=3;net:1:cut@0;net:0.1:corrupt@0",
			policy:  RetryPolicy{MaxAttempts: 3}},
	}
	for _, dc := range cases {
		t.Run(dc.name, func(t *testing.T) {
			refOuts, refCounters := refDiff(t, dc)
			strOuts, strCounters := runDiff(t, dc)
			if len(refOuts) != len(strOuts) {
				t.Fatalf("partition counts differ: reference %d, streaming %d",
					len(refOuts), len(strOuts))
			}
			for i := range refOuts {
				if refOuts[i] != strOuts[i] {
					t.Errorf("partition %d output bytes differ (reference %d B, streaming %d B)",
						i, len(refOuts[i]), len(strOuts[i]))
				}
			}
			for name, want := range refCounters {
				if got := strCounters[name]; got != want {
					t.Errorf("counter %s: streaming %d, reference %d", name, got, want)
				}
			}
		})
	}
}

// TestTransformStreamWindows checks the transform adapter
// at the unit level: windows must partition the stream in order, every
// record must pass through exactly once, and the split counter must settle
// on the whole-stream surplus. The scribbling source holds the adapter to
// the kvStream rule: a record it keeps past the next pull must be a copy.
func TestTransformStreamWindows(t *testing.T) {
	var pairs []KV
	for i := 0; i < 10; i++ {
		k := []byte(fmt.Sprintf("k%02d", i/2)) // two records per key
		pairs = append(pairs, KV{Key: k, Value: []byte{byte(i)}})
	}
	for _, src := range []struct {
		name string
		s    kvStream
	}{
		{"slice", &sliceStream{pairs: pairs}},
		{"scribble", &scribbleStream{pairs: pairs}},
	} {
		t.Run(src.name, func(t *testing.T) {
			var c Counter
			var windows [][]KV
			ts := &transformStream{
				src: src.s,
				transform: func(w []KV) []KV {
					cp := make([]KV, len(w))
					for i, kv := range w {
						cp[i] = KV{Key: bytes.Clone(kv.Key), Value: bytes.Clone(kv.Value)}
					}
					windows = append(windows, cp)
					return dupTransform(w)
				},
				cut:    keyChangeCut(),
				splits: &c,
			}
			got := drainStream(t, ts)
			ts.close()
			if len(windows) != 5 {
				t.Errorf("got %d windows, want 5 (one per distinct key)", len(windows))
			}
			var seen []KV
			for _, w := range windows {
				if len(w) != 2 {
					t.Errorf("window size %d, want 2", len(w))
				}
				seen = append(seen, w...)
			}
			for i, kv := range seen {
				if want := pairs[i]; !bytes.Equal(kv.Key, want.Key) || !bytes.Equal(kv.Value, want.Value) {
					t.Fatalf("window record %d = %q/%v, want %q/%v", i, kv.Key, kv.Value, want.Key, want.Value)
				}
			}
			if len(got) != 20 {
				t.Fatalf("drained %d records, want 20", len(got))
			}
			for i, kv := range got {
				want := pairs[i/2]
				if !bytes.Equal(kv.Key, want.Key) || !bytes.Equal(kv.Value, want.Value) {
					t.Fatalf("record %d = %q/%v, want %q/%v", i, kv.Key, kv.Value, want.Key, want.Value)
				}
			}
			if c.Value() != 10 {
				t.Errorf("split surplus = %d, want 10", c.Value())
			}
		})
	}
}

// scribbleStream hands out every record in one buffer and overwrites the
// previously returned record's bytes on each pull, as a merge reading
// decoder scratch may: a consumer that keeps a record without copying it
// sees garbage.
type scribbleStream struct {
	pairs []KV
	pos   int
	buf   []byte
}

func (s *scribbleStream) next() (KV, bool, error) {
	for i := range s.buf {
		s.buf[i] = 0xee
	}
	if s.pos >= len(s.pairs) {
		return KV{}, false, nil
	}
	kv := s.pairs[s.pos]
	s.pos++
	s.buf = append(append(s.buf[:0], kv.Key...), kv.Value...)
	n := len(kv.Key)
	return KV{Key: s.buf[:n:n], Value: s.buf[n:]}, true, nil
}

func (s *scribbleStream) close() {}

package mapreduce

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"scikey/internal/codec"
)

// builtinMonoids names every built-in combiner for the law and fold tests.
var builtinMonoids = map[string]Monoid{"max32": MaxInt32, "min32": MinInt32, "sum32": SumInt32}

// laneValue encodes lanes as the big-endian int32 array every built-in
// combiner folds.
func laneValue(lanes ...int32) []byte {
	out := make([]byte, 0, 4*len(lanes))
	for _, l := range lanes {
		out = binary.BigEndian.AppendUint32(out, uint32(l))
	}
	return out
}

// randomLanes draws a lane array of the given width from the full int32
// range, the domain the monoid laws must hold over.
func randomLanes(rng *rand.Rand, width int) []byte {
	lanes := make([]int32, width)
	for i := range lanes {
		lanes[i] = int32(rng.Uint32())
	}
	return laneValue(lanes...)
}

// mustMerge clones both operands before merging — Merge may consume a in
// place, and law checks reuse operands across expressions.
func mustMerge(t *testing.T, m Monoid, a, b []byte) []byte {
	t.Helper()
	out, err := m.Merge(bytes.Clone(a), bytes.Clone(b))
	if err != nil {
		t.Fatalf("Merge(%x, %x): %v", a, b, err)
	}
	return out
}

// TestCombinerLaws property-checks every built-in combiner for the three
// laws node-level combining relies on — associativity, identity (both
// sides), and commutativity — across lane widths including the empty value.
func TestCombinerLaws(t *testing.T) {
	for name, c := range builtinMonoids {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x5c1))
			for _, width := range []int{0, 1, 2, 9, 64} {
				for trial := 0; trial < 64; trial++ {
					a := randomLanes(rng, width)
					b := randomLanes(rng, width)
					cc := randomLanes(rng, width)

					ab_c := mustMerge(t, c, mustMerge(t, c, a, b), cc)
					a_bc := mustMerge(t, c, a, mustMerge(t, c, b, cc))
					if !bytes.Equal(ab_c, a_bc) {
						t.Fatalf("associativity broken at width %d: (a·b)·c=%x a·(b·c)=%x", width, ab_c, a_bc)
					}

					ab := mustMerge(t, c, a, b)
					ba := mustMerge(t, c, b, a)
					if !bytes.Equal(ab, ba) {
						t.Fatalf("commutativity broken at width %d: a·b=%x b·a=%x", width, ab, ba)
					}

					if got := mustMerge(t, c, c.Identity(), a); !bytes.Equal(got, a) {
						t.Fatalf("left identity broken at width %d: e·a=%x a=%x", width, got, a)
					}
					if got := mustMerge(t, c, a, c.Identity()); !bytes.Equal(got, a) {
						t.Fatalf("right identity broken at width %d: a·e=%x a=%x", width, got, a)
					}
				}
			}
		})
	}
}

// TestCombinerFolds pins the fold semantics the laws alone do not fix.
func TestCombinerFolds(t *testing.T) {
	cases := []struct {
		name string
		a, b []int32
		want []int32
	}{
		{"max32", []int32{3, -8, 7}, []int32{5, -9, 7}, []int32{5, -8, 7}},
		{"min32", []int32{3, -8, 7}, []int32{5, -9, 7}, []int32{3, -9, 7}},
		{"sum32", []int32{3, -8, 1 << 30}, []int32{5, -9, 1 << 30}, []int32{8, -17, -1 << 31}},
	}
	for _, tc := range cases {
		got := mustMerge(t, builtinMonoids[tc.name], laneValue(tc.a...), laneValue(tc.b...))
		if want := laneValue(tc.want...); !bytes.Equal(got, want) {
			t.Errorf("%s: Merge(%v, %v) = %x, want %x", tc.name, tc.a, tc.b, got, want)
		}
	}
}

// TestCombinerMergeErrors: mismatched lane counts are corruption-grade
// errors, not silent truncation.
func TestCombinerMergeErrors(t *testing.T) {
	if _, err := MaxInt32.Merge(laneValue(1, 2), laneValue(1)); err == nil {
		t.Error("lane-count mismatch not rejected")
	}
	if _, err := MaxInt32.Merge([]byte{1, 2, 3}, []byte{4, 5, 6}); err == nil {
		t.Error("non-int32-aligned values not rejected")
	}
}

// combineJob is a minimal job carrying just what NodeBuffer and
// combineStream consult: splits, partitions, compare, codec, combine config.
func combineJob(splits, reducers, nodes int, cut func() func([]byte) bool) *Job {
	sp := make([]Split, splits)
	for i := range sp {
		sp[i] = Split{ID: i}
	}
	return &Job{
		Splits:      sp,
		NumReducers: reducers,
		Compare:     bytes.Compare,
		MergeCut:    cut,
		Combine:     &CombineConfig{Combiner: SumInt32, Nodes: nodes},
	}
}

// mustWriteSegment materializes sorted pairs as a segment attributed to a
// map attempt.
func mustWriteSegment(t *testing.T, pairs []KV, src, attempt int) segment {
	t.Helper()
	seg, err := writeSegment(pairs, codec.None)
	if err != nil {
		t.Fatal(err)
	}
	seg.src, seg.attempt = src, attempt
	return seg
}

// drainStream collects a kvStream into owned records.
func drainStream(t *testing.T, s kvStream) []KV {
	t.Helper()
	var out []KV
	for {
		kv, err := s.pull()
		if err != nil {
			t.Fatal(err)
		}
		if kv == nil {
			return out
		}
		out = append(out, KV{Key: bytes.Clone(kv.Key), Value: bytes.Clone(kv.Value)})
	}
}

// TestCombineStreamFoldsRuns: equal-key runs fold into one record, distinct
// keys pass through, and the record accounting matches.
func TestCombineStreamFoldsRuns(t *testing.T) {
	segA := mustWriteSegment(t, []KV{
		{Key: []byte("a"), Value: laneValue(1)},
		{Key: []byte("b"), Value: laneValue(10)},
		{Key: []byte("c"), Value: laneValue(100)},
	}, 0, 0)
	segB := mustWriteSegment(t, []KV{
		{Key: []byte("a"), Value: laneValue(2)},
		{Key: []byte("a"), Value: laneValue(4)},
		{Key: []byte("c"), Value: laneValue(200)},
	}, 1, 0)
	ms, err := newMergeStream([]segment{segA, segB}, readEnv{codec: codec.None}, keyOrder{compare: bytes.Compare})
	if err != nil {
		t.Fatal(err)
	}
	cs := &combineStream{src: ms, cmp: bytes.Compare, m: SumInt32}
	defer cs.close()
	got := drainStream(t, cs)
	want := []KV{
		{Key: []byte("a"), Value: laneValue(7)},
		{Key: []byte("b"), Value: laneValue(10)},
		{Key: []byte("c"), Value: laneValue(300)},
	}
	if len(got) != len(want) {
		t.Fatalf("combined stream has %d records, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Errorf("record %d = (%q, %x), want (%q, %x)", i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
	if cs.inRecords != 6 || cs.outRecords != 3 {
		t.Errorf("record accounting = %d in / %d out, want 6/3", cs.inRecords, cs.outRecords)
	}
}

// TestCombineStreamRespectsCuts: a key starting a new MergeCut window is
// never folded into the pending run, even when it equals the pending key —
// the invariant keeping windowed merge transforms byte-identical.
func TestCombineStreamRespectsCuts(t *testing.T) {
	segA := mustWriteSegment(t, []KV{
		{Key: []byte("a"), Value: laneValue(1)},
		{Key: []byte("a"), Value: laneValue(2)},
	}, 0, 0)
	segB := mustWriteSegment(t, []KV{
		{Key: []byte("a"), Value: laneValue(4)},
	}, 1, 0)
	ms, err := newMergeStream([]segment{segA, segB}, readEnv{codec: codec.None}, keyOrder{compare: bytes.Compare})
	if err != nil {
		t.Fatal(err)
	}
	// Cut before the third key: two equal keys share the first window, the
	// third starts its own and must stay a separate record.
	seen := 0
	cut := func(key []byte) bool {
		seen++
		return seen == 3
	}
	cs := &combineStream{src: ms, cmp: bytes.Compare, m: SumInt32, cut: cut}
	defer cs.close()
	got := drainStream(t, cs)
	if len(got) != 2 {
		t.Fatalf("cut window ignored: got %d records %v, want 2", len(got), got)
	}
	if !bytes.Equal(got[0].Value, laneValue(3)) || !bytes.Equal(got[1].Value, laneValue(4)) {
		t.Errorf("window fold wrong: values %x / %x, want lanes 3 / 4", got[0].Value, got[1].Value)
	}
	if seen != 3 {
		t.Errorf("cut predicate saw %d keys, want every incoming key once (3)", seen)
	}
}

// TestNodeBufferCombine drives the buffer directly: grouped feeds, the
// representative/empty-row shape of the rows combine returns, duplicate
// folding across members, and stats overwriting on recombine.
func TestNodeBufferCombine(t *testing.T) {
	job := combineJob(4, 2, 2, nil)
	nb := newNodeBuffer(job)
	if nb == nil {
		t.Fatal("newNodeBuffer returned nil for a combining job")
	}
	if nb.numGroups() != 2 {
		t.Fatalf("numGroups = %d, want 2", nb.numGroups())
	}
	if got := nb.members(0); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("members(0) = %v, want [0 2]", got)
	}

	// Tasks 0 and 2 share group 0 and both emit key "k" to partition 0.
	feed := func(task, attempt int, lane int32) {
		finals := make([]segment, job.NumReducers)
		finals[0] = mustWriteSegment(t, []KV{{Key: []byte("k"), Value: laneValue(lane)}}, task, attempt)
		nb.feed(task, attempt, finals)
	}
	feed(0, 0, 5)
	feed(2, 0, 7)
	rows, err := nb.combine(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].task != 0 || rows[1].task != 2 {
		t.Fatalf("combine(0) rows = %+v, want one each for tasks 0 and 2", rows)
	}

	repRow := rows[0].row
	if rows[0].attempt != 0 {
		t.Errorf("representative attempt = %d, want 0", rows[0].attempt)
	}
	pairs, err := mergeSegments([]segment{repRow[0]}, readEnv{codec: codec.None}, bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || !bytes.Equal(pairs[0].Value, laneValue(12)) {
		t.Fatalf("combined row = %v, want one record with lane 12", pairs)
	}
	if repRow[0].src != 0 {
		t.Errorf("combined segment src = %d, want representative 0", repRow[0].src)
	}
	for p, seg := range rows[1].row {
		if len(seg.data) != 0 {
			t.Errorf("non-representative row partition %d not empty (%d bytes)", p, len(seg.data))
		}
	}

	// Re-feeding a member (a recovery re-execution) and recombining folds
	// the fresh value, publishes the member under its new attempt, and
	// overwrites — not accumulates — the group stats.
	var before Counters
	nb.fold(&before)
	feed(2, 1, 9)
	rows, err = nb.combine(0)
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].attempt != 1 {
		t.Errorf("re-fed member attempt = %d, want 1", rows[1].attempt)
	}
	pairs, err = mergeSegments([]segment{rows[0].row[0]}, readEnv{codec: codec.None}, bytes.Compare)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || !bytes.Equal(pairs[0].Value, laneValue(14)) {
		t.Fatalf("recombined row = %v, want one record with lane 14", pairs)
	}
	var after Counters
	nb.fold(&after)
	if got, want := after.CombineMergedRecords.Value(), before.CombineMergedRecords.Value(); got != want {
		t.Errorf("recombine accumulated stats: merged %d, want still %d", got, want)
	}
}

// TestCombineGroupCount pins the node-group resolution: Combine.Nodes,
// clamped to the map task count, whatever the shuffle.
func TestCombineGroupCount(t *testing.T) {
	j := combineJob(10, 1, 1, nil)
	if got := j.combineGroupCount(); got != 1 {
		t.Errorf("groups = %d, want 1", got)
	}
	j.Combine.Nodes = 4
	if got := j.combineGroupCount(); got != 4 {
		t.Errorf("explicit groups = %d, want 4", got)
	}
	j.Combine.Nodes = 64
	if got := j.combineGroupCount(); got != 10 {
		t.Errorf("groups not clamped to splits: %d, want 10", got)
	}
	j.Combine.Nodes = 2
	j.Shuffle = &ShuffleConfig{Mode: ShuffleTCP, Nodes: 5}
	if got := j.combineGroupCount(); got != 2 {
		t.Errorf("networked groups = %d, want Combine.Nodes 2, not the shuffle's 5 nodes", got)
	}
}

// TestCombineValidate: combining without a combiner, or with fewer than one
// node group, fails validation up front.
func TestCombineValidate(t *testing.T) {
	job := wordCountJob(testFS(), faultDocs, 2, false)
	job.Combine = &CombineConfig{}
	if _, err := Run(job); err == nil {
		t.Error("nil Combiner accepted")
	}
	for _, nodes := range []int{-1, 0} {
		job.Combine = &CombineConfig{Combiner: SumInt32, Nodes: nodes}
		if _, err := Run(job); err == nil {
			t.Errorf("Nodes %d accepted", nodes)
		}
	}
}

// runCombineWordCount runs the wordcount job with in-node combining
// configured (nodes groups) and the given fault spec.
func runCombineWordCount(t *testing.T, nodes int, spec string, policy RetryPolicy) (*Counters, []string) {
	t.Helper()
	fs := testFS()
	job := wordCountJob(fs, faultDocs, 2, false)
	job.Combine = &CombineConfig{Combiner: SumInt32, Nodes: nodes}
	job.Retry = policy
	if spec != "" {
		job.Faults = mustInjector(t, spec)
	}
	res, err := Run(job)
	if err != nil {
		t.Fatalf("combining run (nodes=%d, faults=%q) failed: %v", nodes, spec, err)
	}
	return res.Counters, readRawOutputs(t, fs, res.OutputPaths)
}

// TestCombineRecoversCorruptCombinedSegment corrupts the combined segment at
// reduce time: provenance names the group representative, whose re-execution
// re-feeds the buffer, the group recombines, and the job finishes with
// fault-free bytes and undisturbed payload counters.
func TestCombineRecoversCorruptCombinedSegment(t *testing.T) {
	clean, cleanOut := runCombineWordCount(t, 1, "", RetryPolicy{})
	// With one node group, task 0 is the only representative: every
	// non-empty reduce fetch reads its segments.
	c, out := runCombineWordCount(t, 1, "seed=7;segment:0.0:corrupt@0", RetryPolicy{MaxAttempts: 3})
	for i := range out {
		if out[i] != cleanOut[i] {
			t.Errorf("output file %d differs from fault-free combining run", i)
		}
	}
	if c.CorruptSegmentsDetected.Value() == 0 {
		t.Error("corruption not detected: the fault exercised nothing")
	}
	if c.MapTasksRecovered.Value() == 0 {
		t.Error("no map task recovered for the corrupt combined segment")
	}
	if got, want := c.ReduceShuffleBytes.Value(), clean.ReduceShuffleBytes.Value(); got != want {
		t.Errorf("recovered ReduceShuffleBytes = %d, fault-free = %d", got, want)
	}
	if got, want := c.CombineSavedBytes.Value(), clean.CombineSavedBytes.Value(); got != want {
		t.Errorf("recovered CombineSavedBytes = %d, fault-free = %d", got, want)
	}
}

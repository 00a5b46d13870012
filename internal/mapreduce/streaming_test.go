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

// TestTransformStreamWindows checks the transform adapter
// at the unit level: windows must partition the stream in order, every
// record must pass through exactly once, and the split counter must settle
// on the whole-stream surplus. The merge it reads parses a raw segment in
// place, or the level validateSegments decodes from a coded one.
func TestTransformStreamWindows(t *testing.T) {
	var pairs []KV
	for i := 0; i < 10; i++ {
		k := []byte(fmt.Sprintf("k%02d", i/2)) // two records per key
		pairs = append(pairs, KV{Key: k, Value: []byte{byte(i)}})
	}
	for _, src := range []struct {
		name string
		c    codec.Codec
	}{
		{"in-place", codec.None},
		{"decoded", codec.Gzip},
	} {
		t.Run(src.name, func(t *testing.T) {
			seg, err := writeSegment(pairs, src.c)
			if err != nil {
				t.Fatal(err)
			}
			seg.src = 0 // a fetched map output: checked before it is merged
			env := readEnv{codec: src.c}
			level, _, err := validateSegments([]segment{seg}, env)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, s := range level {
					recycleSegment(s)
				}
			}()
			m, err := newMergeStream(level, env, keyOrder{compare: bytes.Compare})
			if err != nil {
				t.Fatal(err)
			}
			defer m.close()
			var c Counter
			var windows [][]KV
			ts := &transformStream{
				src: m,
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
			var got []KV
			for {
				kv, err := ts.pull()
				if err != nil {
					t.Fatal(err)
				}
				if kv == nil {
					break
				}
				got = append(got, KV{Key: bytes.Clone(kv.Key), Value: bytes.Clone(kv.Value)})
			}
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

package mapreduce

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"scikey/internal/codec"
	"scikey/internal/faults"
)

// TestInPlaceMergeMatchesStreamed: a merge over raw segments parsed where
// they lie returns the records a merge streaming the same bytes through a
// codec reader returns, and its records point into the segments
// themselves.
func TestInPlaceMergeMatchesStreamed(t *testing.T) {
	segs := leakSegments(t, codec.None, 4, 300, func(i, s int) string {
		return fmt.Sprintf("k%04d", 4*i+s*(i%3))
	})
	merge := func(env readEnv) []KV {
		t.Helper()
		m, err := newMergeStream(segs, env, keyOrder{compare: bytes.Compare})
		if err != nil {
			t.Fatal(err)
		}
		defer m.close()
		var out []KV
		for {
			kv, ok, err := m.next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return out
			}
			if env.codec == codec.None && !inSegment(segs, kv.Key) {
				t.Fatalf("key %q is not read in place", kv.Key)
			}
			out = append(out, KV{Key: bytes.Clone(kv.Key), Value: bytes.Clone(kv.Value)})
		}
	}
	streamed := &countingCodec{inner: codec.None}
	want := merge(readEnv{codec: streamed})
	if len(want) != 4*300 || streamed.decoded.Load() == 0 {
		t.Fatalf("the streamed merge read %d records through the codec seam", len(want))
	}
	got := merge(readEnv{codec: codec.None})
	if !slices.EqualFunc(got, want, func(a, b KV) bool {
		return bytes.Equal(a.Key, b.Key) && bytes.Equal(a.Value, b.Value)
	}) {
		t.Fatal("the in-place merge differs from the streamed one")
	}
}

// inSegment reports whether p lies inside one of segs' bytes.
func inSegment(segs []segment, p []byte) bool {
	for _, s := range segs {
		for i := range s.data {
			if &s.data[i] == &p[0] {
				return true
			}
		}
	}
	return false
}

// TestInPlaceReadKeepsCodecFaults: a raw segment is parsed where it lies
// only while no codec-site rule wraps its read. A firing rule still routes
// the read through the failing reader, which fails it as a transient
// error; TestCodedValidationScansEverySegment/raw holds a codec.None job
// under such rules to its retries and to the fault-free output.
func TestInPlaceReadKeepsCodecFaults(t *testing.T) {
	seg := leakSegments(t, codec.None, 1, 400, func(i, _ int) string { return fmt.Sprintf("k%04d", i) })[0]
	seg.src = 0
	for _, tc := range []struct {
		spec    string
		inPlace bool
	}{
		{"", true},
		{"codec:0:error@0", false},
		{"codec:0:error@1", true},
		{"codec:1:error@0", true},
	} {
		env := readEnv{codec: codec.None, inj: mustInjector(t, tc.spec), part: 0}
		it, err := openSegment(seg, env)
		if err != nil {
			t.Fatalf("%q: opening: %v", tc.spec, err)
		}
		if inPlace := it.rc == nil; inPlace != tc.inPlace {
			t.Errorf("%q: read in place = %v, want %v", tc.spec, inPlace, tc.inPlace)
		}
		records := int64(0)
		for it.ok {
			records++
			it.advance()
		}
		err = it.err
		it.release()
		switch {
		case tc.inPlace && (err != nil || records != seg.records):
			t.Errorf("%q: read %d of %d records: %v", tc.spec, records, seg.records, err)
		case !tc.inPlace && !faults.IsTransient(err):
			t.Errorf("%q: the wrapped read ended with %v, want the injected error", tc.spec, err)
		}
	}
}

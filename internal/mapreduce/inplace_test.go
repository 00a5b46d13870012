package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"scikey/internal/codec"
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
			kv, err := m.pull()
			if err != nil {
				t.Fatal(err)
			}
			if kv == nil {
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

// TestScanSegmentAllocatesNothing: checking a raw provenance-tagged segment
// is one pass over its bytes (ifile.Verify) and allocates nothing, with no
// injector and with codec-site rules that do not fire for it; a flipped
// byte still surfaces as corruption naming the producing attempt.
func TestScanSegmentAllocatesNothing(t *testing.T) {
	seg := leakSegments(t, codec.None, 1, 2000, func(i, _ int) string {
		return fmt.Sprintf("k%05d", i)
	})[0]
	seg.src, seg.attempt = 3, 1
	inj := mustInjector(t, "codec:7:error")
	for _, env := range []readEnv{{codec: codec.None, part: 2}, {codec: codec.None, inj: inj, part: 2}} {
		if err := scanSegment(seg, env); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() { _ = scanSegment(seg, env) }); allocs != 0 {
			t.Errorf("injector %v: scanning a raw segment made %.1f allocations, want 0", env.inj != nil, allocs)
		}
	}
	bad := seg
	bad.data = bytes.Clone(seg.data)
	bad.data[len(bad.data)/2] ^= 0x40
	var corrupt *ErrCorruptSegment
	if err := scanSegment(bad, readEnv{codec: codec.None, part: 2}); !errors.As(err, &corrupt) ||
		corrupt.MapTask != 3 || corrupt.Attempt != 1 || corrupt.Partition != 2 {
		t.Errorf("a flipped byte scanned as %v", err)
	}
}

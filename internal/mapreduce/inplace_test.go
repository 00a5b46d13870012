package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"scikey/internal/codec"
)

// TestInPlaceMergeMatchesWritten: a merge over raw segments returns, in key
// order, exactly the records leakSegments wrote, and every record it
// returns is parsed where it lies: its key points into the segments
// themselves.
func TestInPlaceMergeMatchesWritten(t *testing.T) {
	const nSegs, nRecs = 4, 300
	// Sorted runs that interleave, with keys shared across segments.
	keyf := func(i, s int) string { return fmt.Sprintf("k%04d", 3*i+s) }
	segs := leakSegments(t, codec.None, nSegs, nRecs, keyf)
	var want []KV
	for s := range nSegs {
		for i := range nRecs {
			want = append(want, KV{Key: []byte(keyf(i, s)), Value: []byte{byte(s), byte(i)}})
		}
	}
	m, err := newMergeStream(segs, readEnv{codec: codec.None}, keyOrder{compare: bytes.Compare})
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	var got []KV
	for {
		kv, err := m.pull()
		if err != nil {
			t.Fatal(err)
		}
		if kv == nil {
			break
		}
		if !inSegment(segs, kv.Key) {
			t.Fatalf("key %q is not read in place", kv.Key)
		}
		if n := len(got); n > 0 && bytes.Compare(got[n-1].Key, kv.Key) > 0 {
			t.Fatalf("record %d: key %q after %q", n, kv.Key, got[n-1].Key)
		}
		got = append(got, KV{Key: bytes.Clone(kv.Key), Value: bytes.Clone(kv.Value)})
	}
	byRecord := func(a, b KV) int {
		if c := bytes.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return bytes.Compare(a.Value, b.Value)
	}
	slices.SortFunc(got, byRecord)
	slices.SortFunc(want, byRecord)
	if !slices.EqualFunc(got, want, func(a, b KV) bool { return byRecord(a, b) == 0 }) {
		t.Fatalf("the merge returned %d records unlike the %d written", len(got), len(want))
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

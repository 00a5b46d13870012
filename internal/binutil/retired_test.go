package binutil

// Retired from the shipped package: nothing a binary runs calls the code in
// this file (scripts/reach). It is parked next to the only test that uses it
// because the floor rule lets a PR drop no more than a few tests at once;
// delete the function and its test together, whenever a PR has room.

import (
	"math"
	"testing"
	"testing/quick"
)

// zigZag encodes a signed integer so that small magnitudes of either sign
// become small unsigned values (protobuf-style).
func zigZag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unZigZag inverts zigZag.
func unZigZag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func TestZigZag(t *testing.T) {
	cases := map[int64]uint64{0: 0, -1: 1, 1: 2, -2: 3, 2: 4, math.MaxInt64: math.MaxUint64 - 1, math.MinInt64: math.MaxUint64}
	for v, want := range cases {
		if got := zigZag(v); got != want {
			t.Errorf("zigZag(%d) = %d, want %d", v, got, want)
		}
		if back := unZigZag(zigZag(v)); back != v {
			t.Errorf("unZigZag(zigZag(%d)) = %d", v, back)
		}
	}
	f := func(v int64) bool { return unZigZag(zigZag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

package queryd

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"scikey/internal/cluster"
	"scikey/internal/mapreduce"
)

// FuzzDecodeSnapshot: whatever bytes the store hands back, decodeSnapshot
// either rejects them or returns a snapshot that re-encodes to exactly the
// input — never a panic, and never a silently different snapshot (the cache
// contract is "corrupt entries are misses"). Each input is tried twice, as
// given and with its last four bytes replaced by the matching CRC, so the
// fuzzer also explores the parser behind the checksum gate.
func FuzzDecodeSnapshot(f *testing.F) {
	real := encodeSnapshot(&mapreduce.MapPhaseSnapshot{
		Segments: [][]mapreduce.SegmentSnapshot{
			{{Records: 3, Src: 0, Attempt: 1, Data: []byte("seg-0.0")}, {Records: 0, Src: 0, Attempt: 1}},
			{{Records: 7, Src: 1, Attempt: 0, Data: []byte("seg-1.0")}, {Records: 2, Src: 1, Attempt: 0, Data: []byte{0xff}}},
		},
		Attempts:    []int{1, 0},
		Footprints:  []cluster.Task{{DiskBytes: 4096, NetBytes: 0, CPUSeconds: 0.25}, {DiskBytes: 1, NetBytes: 2, CPUSeconds: 3}},
		InputBytes:  []int64{2304, 2304},
		Hosts:       [][]string{{"node0", "node1"}, nil},
		WallSeconds: []float64{0.5, 0.125},
		Counters:    []int64{1, 2, 3, 0, -1},
		NumReducers: 2,
	})
	f.Add(real)
	for _, n := range []int{0, 3, 4, 8, 16, len(real) / 2, len(real) - 5, len(real) - 1} {
		f.Add(real[:n])
	}
	flipped := append([]byte(nil), real...)
	flipped[len(flipped)-1] ^= 1
	f.Add(flipped)
	f.Add(overclaimedSnapshot())
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(b []byte) {
			s, err := decodeSnapshot(b)
			if err != nil {
				return
			}
			if again := encodeSnapshot(s); !bytes.Equal(again, b) {
				t.Fatalf("decode accepted %d bytes that re-encode to %d different bytes", len(b), len(again))
			}
		}
		check(data)
		if len(data) >= 4 {
			body := data[:len(data)-4]
			check(binary.BigEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body)))
		}
	})
}

// overclaimedSnapshot is a CRC-valid header claiming 2^20 tasks with no bytes
// behind the claim — the input the fuzz target found making decodeSnapshot
// allocate ~100 MB of per-task slices before its first bounds check failed.
func overclaimedSnapshot() []byte {
	var b []byte
	for _, v := range []uint32{snapMagic, snapVersion, 1 << 20, 5} {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestDecodeSnapshotBoundsCountsByRemainingBytes: a count the remaining
// bytes cannot hold is rejected before anything is allocated for it.
func TestDecodeSnapshotBoundsCountsByRemainingBytes(t *testing.T) {
	blob := overclaimedSnapshot()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeSnapshot(blob)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decodeSnapshot accepted a 20-byte blob claiming 2^20 tasks")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("decodeSnapshot allocated %d B rejecting a %d B blob, want under 64 KiB", grew, len(blob))
	}
}

package queryd

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"runtime"
	"testing"
	"unsafe"

	"scikey/internal/cluster"
	"scikey/internal/mapreduce"
)

// FuzzDecodeSnapshot: whatever bytes the store hands back, decodeSnapshot
// either rejects them or returns a snapshot that re-encodes to exactly the
// input — never a panic, and never a silently different snapshot (the cache
// contract is "corrupt entries are misses"). An accepted snapshot's segments
// alias the input, each inside it with cap == len, so an append by any
// consumer reallocates instead of overwriting the next segment. Each input
// is tried twice, as given and with its last four bytes replaced by the
// matching CRC, so the fuzzer also explores the parser behind the checksum
// gate.
func FuzzDecodeSnapshot(f *testing.F) {
	real := encodeSnapshot(&mapreduce.MapPhaseSnapshot{
		Attempts: []int{1, 0},
		Tasks: []mapreduce.RemoteResult{
			{Parts: [][]byte{[]byte("seg-0.0"), nil}, Counters: []int64{1, 2, 3, 0, -1},
				Footprint: cluster.Task{DiskBytes: 4096, NetBytes: 0, CPUSeconds: 0.25}, InputBytes: 2304,
				Hosts: []string{"node0", "node1"}, WallSeconds: 0.5},
			{Parts: [][]byte{[]byte("seg-1.0"), {0xff}}, Counters: []int64{0, 0, 7, 1, 2},
				Footprint: cluster.Task{DiskBytes: 1, NetBytes: 2, CPUSeconds: 3}, InputBytes: 2304, WallSeconds: 0.125},
		},
		Groups:      []mapreduce.NodeStats{{In: 5, Out: 3, RawBytes: 40, OutBytes: 30}},
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
			for i, task := range s.Tasks {
				for p, part := range task.Parts {
					if cap(part) != len(part) {
						t.Fatalf("segment %d.%d: cap %d != len %d", i, p, cap(part), len(part))
					}
					if !inside(part, b) {
						t.Fatalf("segment %d.%d (%d B) does not lie inside the %d-byte input", i, p, len(part), len(b))
					}
				}
			}
		}
		check(data)
		if len(data) >= 4 {
			body := data[:len(data)-4]
			check(binary.BigEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body)))
		}
	})
}

// inside reports whether sub's bytes lie within b's.
func inside(sub, b []byte) bool {
	start := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(sub)))
	return p >= start && p+uintptr(len(sub)) <= start+uintptr(len(b))
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

// FuzzQuerySpec: whatever JSON a client posts, Validate and CacheKey never
// panic; a spec the service admits is priced by predictCost without a
// panic, and its CacheKey survives a JSON round trip.
func FuzzQuerySpec(f *testing.F) {
	for _, s := range []string{
		`{"side":24,"strategy":"transform","codec":"block+zlib","op":"median","radius":1,"splits":4,"reducers":2}`,
		`{"side":128,"strategy":"aggregation","curve":"hilbert","flush":64,"op":"max","combine":true,"combine_nodes":2}`,
		`{"side":64,"strategy":"boxes","op":"max","radius":3,"splits":10,"reducers":5,"tenant":"a"}`,
		`{"side":8192,"strategy":"baseline","op":"median","radius":8191,"splits":4096,"reducers":4096}`,
		`{"side":100000,"strategy":"baseline"}`,
		`{"side":-1,"strategy":"transform","codec":"nope","radius":-3,"splits":-1}`,
		`{"faults":"map:0:error@0","side":8,"strategy":"baseline"}`,
	} {
		f.Add([]byte(s))
	}
	svc := New(Config{})
	defer svc.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec QuerySpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		key := spec.CacheKey()
		if admissible(spec) != nil { // runs Validate
			return
		}
		svc.predictCost(spec)
		wire, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal an admitted spec: %v", err)
		}
		var again QuerySpec
		if err := json.Unmarshal(wire, &again); err != nil {
			t.Fatalf("unmarshal %s: %v", wire, err)
		}
		if got := again.CacheKey(); got != key {
			t.Fatalf("cache key %q became %q across a JSON round trip of %s", key, got, wire)
		}
	})
}

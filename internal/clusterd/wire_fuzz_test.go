package clusterd

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"scikey/internal/mapreduce"
)

// FuzzWireFrame throws arbitrary bytes at the frame reader shared by the
// cluster wire protocol and the coordinator journal. Invariants: never panic,
// never allocate beyond the input's actual size plus one growth chunk
// (enforced structurally by readFrame's incremental growth, probed here with
// huge-length headers on tiny inputs), and any frame that parses re-encodes
// to exactly the bytes consumed.
func FuzzWireFrame(f *testing.F) {
	var good bytes.Buffer
	if err := writeMsg(&good, kindHello, helloMsg{PID: 7, Worker: -1}); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:5])                   // truncated mid-header
	f.Add(good.Bytes()[:len(good.Bytes())-2]) // truncated mid-payload

	corrupt := append([]byte{}, good.Bytes()...)
	corrupt[len(corrupt)-1] ^= 0x40
	f.Add(corrupt)

	// Oversized and maximal length fields with no payload behind them.
	var huge [9]byte
	huge[0] = kindGrant
	binary.BigEndian.PutUint32(huge[1:], maxFrame+1)
	f.Add(huge[:])
	binary.BigEndian.PutUint32(huge[1:], maxFrame)
	f.Add(huge[:])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A parsed frame's CRC was verified; re-framing the payload must
		// reproduce the consumed prefix byte for byte.
		var re bytes.Buffer
		if _, err := (message{kind: kind, header: payload}).writeTo(&re); err != nil {
			t.Fatalf("re-encoding parsed frame: %v", err)
		}
		if re.Len() > len(data) || !bytes.Equal(re.Bytes(), data[:re.Len()]) {
			t.Fatalf("parsed frame does not round-trip: %d bytes in, %d re-encoded", len(data), re.Len())
		}
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[5:9]) {
			t.Fatal("payload accepted with mismatched CRC")
		}
		// readMsg additionally gates the kind range.
		if _, err := readMsg(bytes.NewReader(data)); err == nil {
			if kind < kindHello || kind > kindPubAck {
				t.Fatalf("readMsg accepted out-of-range kind %d", kind)
			}
		}
	})
}

// FuzzWireMsg throws arbitrary bytes at the message reader: a header frame
// and the blob frames its Blobs member announces. Invariants: never panic;
// never allocate beyond the input plus one growth chunk, whatever the header
// announces (more blobs than follow, a non-blob frame where a blob is due, a
// blob of another length, a count or total beyond maxFrame); and any
// message that is accepted re-encodes to exactly the bytes consumed and
// decodes into its kind's type without a panic.
func FuzzWireMsg(f *testing.F) {
	add := func(kind byte, v any) []byte {
		var b bytes.Buffer
		if err := writeMsg(&b, kind, v); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
		return b.Bytes()
	}
	frame := func(kind byte, payload string) []byte {
		var b bytes.Buffer
		message{kind: kind, header: []byte(payload)}.writeTo(&b)
		return b.Bytes()
	}
	complete := add(kindComplete, completeMsg{Lease: 4, Result: &mapreduce.RemoteResult{
		Parts: [][]byte{[]byte("part-zero"), nil, {}}, Counters: []int64{1, 2}, WallSeconds: 0.25,
	}})
	add(kindSegData, segDataMsg{Seq: 2, Attempt: 1, Data: []byte("segment")})
	add(kindPublish, publishMsg{Seq: 3, MapTask: 1, Parts: [][]byte{[]byte("p0"), nil}})
	add(kindRunResult, runResultMsg{Seq: 5, Error: "boom"})
	add(kindHeartbeat, heartbeatMsg{Leases: []int{1, 2}})

	hdrLen := frameHeader + int(binary.BigEndian.Uint32(complete[1:5]))
	f.Add(complete[:hdrLen])                                                           // more blobs announced than follow
	f.Add(complete[:len(complete)-3])                                                  // the last blob torn
	f.Add(append(frame(kindComplete, `{"Blobs":[2]}`), frame(kindHeartbeat, "{}")...)) // a non-blob frame where a blob is due
	f.Add(append(frame(kindComplete, `{"Blobs":[3]}`), frame(kindBlob, "ab")...))      // a blob of another length
	f.Add(frame(kindPublish, `{"Blobs":[1073741824,1073741824]}`))                     // a total beyond maxFrame
	f.Add(frame(kindPublish, `{"Blobs":[`+strings.Repeat("0,", 2000)+`0]}`))           // a large count, nothing behind it

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var m message
		var err error
		n := allocBytes(1, func() { m, err = readMsg(r) })
		if limit := uint64(len(data)) + frameAllocChunk + 64<<10; n > limit {
			t.Fatalf("reading %d bytes allocated %d, want at most %d", len(data), n, limit)
		}
		if err != nil {
			return
		}
		consumed := len(data) - r.Len()
		var re bytes.Buffer
		if _, err := m.writeTo(&re); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), data[:consumed]) {
			t.Fatalf("accepted message does not re-encode: %d bytes consumed, %d re-encoded", consumed, re.Len())
		}
		var v any
		switch m.kind {
		case kindComplete:
			v = new(completeMsg)
		case kindRunResult, kindPubAck:
			v = new(runResultMsg)
		case kindPublish:
			v = new(publishMsg)
		case kindSegData:
			v = new(segDataMsg)
		default:
			v = new(map[string]any)
		}
		m.decode(v)
	})
}

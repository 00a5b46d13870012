package binutil

import (
	"bytes"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func TestVLongRoundTripKnown(t *testing.T) {
	cases := []int64{0, 1, -1, 127, 128, -112, -113, 255, 256, -256,
		1 << 15, -(1 << 15), 1 << 31, -(1 << 31), math.MaxInt64, math.MinInt64,
		42, 1000000, -1000000}
	for _, v := range cases {
		enc := AppendVLong(nil, v)
		if got := VLongLen(v); got != len(enc) {
			t.Errorf("VLongLen(%d) = %d, want %d", v, got, len(enc))
		}
		dec, n, err := DecodeVLong(enc)
		if err != nil {
			t.Fatalf("DecodeVLong(%d): %v", v, err)
		}
		if n != len(enc) || dec != v {
			t.Errorf("roundtrip %d: got %d (consumed %d of %d)", v, dec, n, len(enc))
		}
	}
}

func TestVLongSingleByteRange(t *testing.T) {
	// Hadoop stores [-112, 127] in one byte.
	for v := int64(-112); v <= 127; v++ {
		if got := VLongLen(v); got != 1 {
			t.Fatalf("VLongLen(%d) = %d, want 1", v, got)
		}
	}
	if VLongLen(-113) == 1 || VLongLen(128) == 1 {
		t.Error("values outside [-112,127] must not encode to one byte")
	}
}

func TestVLongHadoopCompatExamples(t *testing.T) {
	// Byte sequences from Hadoop WritableUtils.writeVLong.
	cases := []struct {
		v   int64
		enc []byte
	}{
		{0, []byte{0}},
		{127, []byte{127}},
		{-112, []byte{0x90}},
		{128, []byte{0x8f, 0x80}},           // -113 marker, payload 0x80
		{255, []byte{0x8f, 0xff}},           // -113 marker
		{256, []byte{0x8e, 0x01, 0x00}},     // -114 marker
		{-113, []byte{0x87, 0x70}},          // -121 marker, ^(-113)=112
		{-256, []byte{0x87, 0xff}},          // ^(-256)=255
		{-257, []byte{0x86, 0x01, 0x00}},    // ^(-257)=256
		{1 << 24, []byte{0x8c, 1, 0, 0, 0}}, // -116 marker, 4 bytes
		{(1 << 24) - 1, []byte{0x8d, 0xff, 0xff, 0xff}},
	}
	for _, c := range cases {
		if got := AppendVLong(nil, c.v); !bytes.Equal(got, c.enc) {
			t.Errorf("AppendVLong(%d) = %x, want %x", c.v, got, c.enc)
		}
	}
}

func TestVLongQuick(t *testing.T) {
	f := func(v int64) bool {
		enc := AppendVLong(nil, v)
		dec, n, err := DecodeVLong(enc)
		return err == nil && n == len(enc) && dec == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestVIntRange(t *testing.T) {
	enc := AppendVLong(nil, int64(math.MaxInt32)+1)
	if _, _, err := DecodeVInt(enc); err == nil {
		t.Error("DecodeVInt should reject values beyond int32")
	}
	enc = AppendVInt(nil, math.MinInt32)
	v, _, err := DecodeVInt(enc)
	if err != nil || v != math.MinInt32 {
		t.Errorf("DecodeVInt(MinInt32) = %d, %v", v, err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	enc := AppendVLong(nil, 1<<40)
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeVLong(enc[:i]); err == nil {
			t.Errorf("DecodeVLong on %d-byte prefix should fail", i)
		}
	}
}

// TestDecodeVLongEOF pins which error a reader of truncated input sees: both
// an empty buffer and a marker with a short payload report
// io.ErrUnexpectedEOF, so callers can tell "ran out" from "malformed".
func TestDecodeVLongEOF(t *testing.T) {
	if _, n, err := DecodeVLong(nil); err != io.ErrUnexpectedEOF || n != 0 {
		t.Errorf("empty input: got n=%d err=%v, want 0, io.ErrUnexpectedEOF", n, err)
	}
	enc := AppendVLong(nil, 1<<20)
	if _, n, err := DecodeVLong(enc[:1]); err != io.ErrUnexpectedEOF || n != 0 {
		t.Errorf("truncated payload: got n=%d err=%v, want 0, io.ErrUnexpectedEOF", n, err)
	}
	if _, _, err := DecodeVLong([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Errorf("full 8-byte negative payload: %v", err)
	}
}

// TestAppendVLong: AppendVLong writes after whatever dst already holds — the
// way serial.DataOutput.WriteVInt uses it, through AppendVInt — leaving the
// prefix intact and adding exactly VLongLen bytes.
func TestAppendVLong(t *testing.T) {
	prefix := []byte{0xde, 0xad}
	buf := AppendVLong(append([]byte(nil), prefix...), 123456789)
	if !bytes.Equal(buf[:2], prefix) || len(buf) != 2+VLongLen(123456789) {
		t.Fatalf("AppendVLong onto a prefix: % x", buf)
	}
	v, n, err := DecodeVLong(buf[2:])
	if err != nil || v != 123456789 || n != len(buf)-2 {
		t.Fatalf("readback: %d, %d, %v", v, n, err)
	}
}

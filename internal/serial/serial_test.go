package serial

import (
	"testing"
	"testing/quick"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	out := NewDataOutput(64)
	out.WriteByte(0xab)
	out.WriteI32(-123456)
	out.WriteVInt(-300)
	out.WriteText("windspeed1")
	out.WriteU32(0xdeadbeef)
	out.WriteU64(0x0123456789abcdef)

	in := NewDataInput(out.Bytes())
	if b, _ := in.ReadByte(); b != 0xab {
		t.Errorf("byte = %x", b)
	}
	if v, _ := in.ReadI32(); v != -123456 {
		t.Errorf("i32 = %d", v)
	}
	if v, _ := in.ReadVInt(); v != -300 {
		t.Errorf("vint = %d", v)
	}
	if s, _ := in.ReadText(); s != "windspeed1" {
		t.Errorf("text = %q", s)
	}
	if v, _ := in.ReadU32(); v != 0xdeadbeef {
		t.Errorf("u32 = %x", v)
	}
	if v, _ := in.ReadU64(); v != 0x0123456789abcdef {
		t.Errorf("u64 = %x", v)
	}
	if in.Remaining() != 0 {
		t.Errorf("%d bytes left over", in.Remaining())
	}
}

func TestTextEncodedSize(t *testing.T) {
	// "windspeed1" must cost exactly 11 bytes: VInt(10)=1 + 10 chars.
	// This is the 7-byte delta vs a 4-byte variable index that explains the
	// 33,000,006 vs 26,000,006 file sizes in the introduction.
	out := NewDataOutput(16)
	out.WriteText("windspeed1")
	if out.Len() != 11 {
		t.Errorf("Text(windspeed1) = %d bytes, want 11", out.Len())
	}
}

func TestTruncatedReads(t *testing.T) {
	in := NewDataInput([]byte{1, 2})
	if _, err := in.ReadI32(); err == nil {
		t.Error("ReadI32 on 2 bytes must fail")
	}
	in = NewDataInput([]byte{0x05, 'a', 'b'})
	if _, err := in.ReadText(); err == nil {
		t.Error("ReadText with short payload must fail")
	}
}

func TestCompareBytes(t *testing.T) {
	cases := []struct {
		a, b []byte
		want int
	}{
		{nil, nil, 0},
		{[]byte{1}, nil, 1},
		{nil, []byte{1}, -1},
		{[]byte{1, 2}, []byte{1, 2}, 0},
		{[]byte{1, 2}, []byte{1, 3}, -1},
		{[]byte{0xff}, []byte{0x01}, 1}, // unsigned comparison
		{[]byte{1}, []byte{1, 0}, -1},   // prefix sorts first
	}
	for _, c := range cases {
		if got := CompareBytes(c.a, c.b); got != c.want {
			t.Errorf("CompareBytes(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	f := func(a, b []byte) bool {
		return CompareBytes(a, b) == -CompareBytes(b, a) && CompareBytes(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDataOutputReset(t *testing.T) {
	out := NewDataOutput(8)
	out.WriteI32(7)
	out.Reset()
	if out.Len() != 0 {
		t.Error("Reset must empty the buffer")
	}
	out.WriteVInt(1)
	if out.Len() != 1 {
		t.Errorf("post-reset write len = %d", out.Len())
	}
}

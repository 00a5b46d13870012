package netcdf

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

func sampleFile() *File {
	f := &File{
		Dims: []Dim{{Name: "time", Len: 2}, {Name: "y", Len: 3}, {Name: "x", Len: 4}},
		Attrs: []Attr{
			{Name: "title", Text: "windspeed sample"},
			{Name: "version", Values: []int32{3}},
		},
	}
	vals := make([]int32, 2*3*4)
	for i := range vals {
		vals[i] = int32(i * 10)
	}
	f.Vars = append(f.Vars, &Var{
		Name:   "windspeed1",
		Dims:   []int{0, 1, 2},
		Attrs:  []Attr{{Name: "units", Text: "m/s"}},
		Int32s: vals,
	})
	f.Vars = append(f.Vars, &Var{
		Name:   "mask",
		Dims:   []int{1, 2},
		Int32s: make([]int32, 3*4),
	})
	return f
}

func TestRoundTrip(t *testing.T) {
	f := sampleFile()
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Dims) != 3 || got.Dims[2].Name != "x" || got.Dims[2].Len != 4 {
		t.Errorf("dims = %v", got.Dims)
	}
	if len(got.Attrs) != 2 || got.Attrs[0].Text != "windspeed sample" || got.Attrs[1].Values[0] != 3 {
		t.Errorf("attrs = %v", got.Attrs)
	}
	v, ok := got.VarByName("windspeed1")
	if !ok {
		t.Fatal("windspeed1 missing")
	}
	if v.Attrs[0].Name != "units" || v.Attrs[0].Text != "m/s" {
		t.Errorf("var attrs = %v", v.Attrs)
	}
	if got := v.Shape(got); got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Errorf("shape = %v", got)
	}
	for i, want := range f.Vars[0].Int32s {
		if v.Int32s[i] != want {
			t.Fatalf("cell %d = %d, want %d", i, v.Int32s[i], want)
		}
	}
	if _, ok := got.VarByName("nope"); ok {
		t.Error("VarByName on missing name")
	}
}

func TestOnDiskLayout(t *testing.T) {
	// Check the first bytes against the spec by hand: magic, numrecs,
	// NC_DIMENSION tag, dimension count.
	f := &File{Dims: []Dim{{Name: "x", Len: 7}}}
	f.Vars = append(f.Vars, &Var{Name: "v", Dims: []int{0}, Int32s: make([]int32, 7)})
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if !bytes.Equal(b[:4], []byte{'C', 'D', 'F', 1}) {
		t.Errorf("magic = %v", b[:4])
	}
	if binary.BigEndian.Uint32(b[4:]) != 0 {
		t.Error("numrecs != 0")
	}
	if binary.BigEndian.Uint32(b[8:]) != tagDimension || binary.BigEndian.Uint32(b[12:]) != 1 {
		t.Error("dimension list header wrong")
	}
	// Name "x": length 1 then 'x' plus 3 padding bytes.
	if binary.BigEndian.Uint32(b[16:]) != 1 || b[20] != 'x' || b[21] != 0 || b[23] != 0 {
		t.Error("name encoding wrong")
	}
	if binary.BigEndian.Uint32(b[24:]) != 7 {
		t.Error("dim length wrong")
	}
	// The variable payload begins where the header says it does.
	v := f.Vars[0]
	if v.Begin() <= 0 || v.Begin()+7*4 != int64(len(b)) {
		t.Errorf("begin = %d, file = %d bytes", v.Begin(), len(b))
	}
}

func TestFloatVariable(t *testing.T) {
	f := &File{Dims: []Dim{{Name: "x", Len: 2}}}
	bits := []int32{int32(math.Float32bits(1.5)), int32(math.Float32bits(-2.25))}
	f.Vars = append(f.Vars, &Var{Name: "f", Dims: []int{0}, Float: true, Int32s: bits})
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	v := got.Vars[0]
	if !v.Float {
		t.Error("float flag lost")
	}
	if v.Int32s[0] != bits[0] || v.Int32s[1] != bits[1] {
		t.Errorf("float bits = %#x, %#x; want %#x, %#x", v.Int32s[0], v.Int32s[1], bits[0], bits[1])
	}
}

func TestHeaderOnlyParse(t *testing.T) {
	f := sampleFile()
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	hdrLen := f.headerSize()
	hdr, err := ParseHeader(buf.Bytes()[:hdrLen])
	if err != nil {
		t.Fatal(err)
	}
	v, ok := hdr.VarByName("windspeed1")
	if !ok || v.Int32s != nil {
		t.Errorf("header parse loaded payloads: %v", v)
	}
	if v.Begin() != f.Vars[0].Begin() {
		t.Errorf("begin = %d, want %d", v.Begin(), f.Vars[0].Begin())
	}
}

func TestEmptyFile(t *testing.T) {
	f := &File{}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Dims) != 0 || len(got.Vars) != 0 || len(got.Attrs) != 0 {
		t.Errorf("empty file parsed as %+v", got)
	}
}

func TestParseErrors(t *testing.T) {
	good := func() []byte {
		var buf bytes.Buffer
		sampleFile().WriteTo(&buf)
		return buf.Bytes()
	}()
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   {'X', 'D', 'F', 1, 0, 0, 0, 0},
		"bad version": {'C', 'D', 'F', 2, 0, 0, 0, 0},
		"truncated":   good[:20],
	}
	for name, b := range cases {
		if _, err := Parse(b); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Payload size mismatch on write.
	bad := &File{Dims: []Dim{{Name: "x", Len: 5}}}
	bad.Vars = append(bad.Vars, &Var{Name: "v", Dims: []int{0}, Int32s: make([]int32, 3)})
	if _, err := bad.WriteTo(&bytes.Buffer{}); err == nil {
		t.Error("size mismatch must fail")
	}
}

// TestParseRefusesImplausibleCounts: a header's counts are claims. The first
// case, 48 bytes that FuzzParse found (its seed since), declares one variable
// over 0x39393900 dimensions; ParseHeader kept appending dimension 0 after
// the bytes ran out, until the host killed it at gigabytes. Every count is
// now held to what the bytes left can hold before anything is allocated for
// it, and so is a payload's cell count, a product of dimension lengths that
// can overflow to a negative (a panic in make) or to zero (a variable of
// 2⁶⁴ cells read as none).
func TestParseRefusesImplausibleCounts(t *testing.T) {
	be := func(words ...uint32) []byte {
		b := []byte("CDF\x01")
		for _, w := range words {
			b = binary.BigEndian.AppendUint32(b, w)
		}
		return b
	}
	const huge = 0x39393900
	cases := map[string][]byte{
		"dimension references": be(0, tagDimension, 1, 0, 3, 0, 0, tagVariable, 1, 0, huge),
		"dimensions":           be(0, tagDimension, huge),
		"global attributes":    be(0, 0, 0, tagAttribute, huge),
		"attribute values":     be(0, 0, 0, tagAttribute, 1, 0, ncInt, huge),
		"attribute characters": be(0, 0, 0, tagAttribute, 1, 0, ncChar, huge),
		"variables":            be(0, 0, 0, 0, 0, tagVariable, huge),
		"variable attributes":  be(0, 0, 0, 0, 0, tagVariable, 1, 0, 0, tagAttribute, huge),
		"cells overflowing to a negative": be(0, tagDimension, 2, 0, math.MaxUint32, 0, math.MaxUint32, 0, 0,
			tagVariable, 1, 0, 2, 0, 1, 0, 0, ncInt, 0, 0),
		"cells overflowing to zero": be(0, tagDimension, 1, 0, 1<<16, 0, 0,
			tagVariable, 1, 0, 4, 0, 0, 0, 0, 0, 0, ncInt, 0, 0),
	}
	for name, b := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Parse(b)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a %d-byte header parsed", name, len(b))
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("%s: parsing %d bytes allocated %d", name, len(b), n)
		}
	}
}

func TestUnnamedPadding(t *testing.T) {
	// Names whose lengths are multiples of 4 take no padding; verify both
	// paths roundtrip.
	f := &File{Dims: []Dim{{Name: "abcd", Len: 2}, {Name: "xyz", Len: 3}}}
	f.Vars = append(f.Vars, &Var{Name: "data", Dims: []int{0, 1}, Int32s: make([]int32, 6)})
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Dims[0].Name != "abcd" || got.Dims[1].Name != "xyz" {
		t.Errorf("dims = %v", got.Dims)
	}
}

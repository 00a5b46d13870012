package workload

import (
	"bytes"
	"encoding/binary"
	"testing"

	"scikey/internal/grid"
	"scikey/internal/keys"
)

func TestGridWalkTriplesSize(t *testing.T) {
	// Fig. 3's input: the 100^3 walk is exactly 12,000,000 bytes.
	if got := len(GridWalkTriples(10)); got != 12000 {
		t.Errorf("10^3 walk = %d bytes, want 12000", got)
	}
	data := GridWalkTriples(3)
	// First triple is (0,0,0), second (0,0,1).
	if binary.BigEndian.Uint32(data[8:]) != 0 || binary.BigEndian.Uint32(data[20:]) != 1 {
		t.Error("walk order wrong")
	}
}

func TestGridWalkStreamRank2(t *testing.T) {
	b := grid.NewBox(grid.Coord{1, 2}, []int{2, 2})
	data := GridWalkStream(b)
	if len(data) != 4*2*4 {
		t.Fatalf("len = %d", len(data))
	}
	want := []uint32{1, 2, 1, 3, 2, 2, 2, 3}
	for i, w := range want {
		if got := binary.BigEndian.Uint32(data[i*4:]); got != w {
			t.Errorf("word %d = %d, want %d", i, got, w)
		}
	}
}

func TestKeyValueStreamSize(t *testing.T) {
	// One thousand 27-byte keys + 4-byte values = 31,000 bytes.
	codec := &keys.Codec{Rank: 4, Mode: keys.VarByName}
	box := grid.NewBox(grid.Coord{0, 0, 0, 0}, []int{1, 10, 10, 10})
	v := keys.VarRef{Name: "windspeed1"}
	val := []byte{0, 0, 0, 1}
	data := KeyValueStream(codec, v, box, func(grid.Coord) []byte { return val })
	if len(data) != 31*1000 {
		t.Errorf("stream = %d bytes, want 31000", len(data))
	}
}

func TestRecordGroups(t *testing.T) {
	marker := []byte{0xee, 0xff}
	data := RecordGroups(8, 3, 4, marker)
	wantLen := (8*3 + 2) * 4
	if len(data) != wantLen {
		t.Fatalf("len = %d, want %d", len(data), wantLen)
	}
	// Markers sit after every group.
	for g := 0; g < 4; g++ {
		off := (g+1)*(8*3) + g*2
		if !bytes.Equal(data[off:off+2], marker) {
			t.Errorf("marker missing at group %d", g)
		}
	}
	// Record counters increase monotonically.
	if binary.BigEndian.Uint32(data[0:]) != 0 || binary.BigEndian.Uint32(data[8:]) != 1 {
		t.Error("record counters wrong")
	}
}

func TestFieldDeterministic(t *testing.T) {
	f := Field{Extent: grid.NewBox(grid.Coord{0, 0}, []int{10, 10}), Name: "v"}
	c := grid.Coord{3, 4}
	if f.Value(c) != f.Value(grid.Coord{3, 4}) {
		t.Error("Value must be deterministic")
	}
	if f.Value(c) < 0 || f.Value(c) >= 1000 {
		t.Errorf("Value out of range: %d", f.Value(c))
	}
	if f.Value(grid.Coord{4, 3}) == f.Value(c) && f.Value(grid.Coord{0, 0}) == f.Value(c) {
		t.Error("field suspiciously constant")
	}
	vb := f.ValueBytes(c)
	if int32(binary.BigEndian.Uint32(vb)) != f.Value(c) {
		t.Error("ValueBytes disagrees with Value")
	}
}

// TestKeyValueStreamSeveralVars: records of several variables with different shapes
// and name lengths — the "multiple variables ... may have different stride
// lengths" difficulty from Section III — each cost key + value bytes.
func TestKeyValueStreamSeveralVars(t *testing.T) {
	codec := &keys.Codec{Rank: 2, Mode: keys.VarByName}
	vars := []keys.VarRef{{Name: "a"}, {Name: "longername"}}
	boxes := []grid.Box{
		grid.NewBox(grid.Coord{0, 0}, []int{2, 2}),
		grid.NewBox(grid.Coord{0, 0}, []int{3, 3}),
	}
	var data []byte
	for i, v := range vars {
		f := Field{Extent: boxes[i], Name: v.Name}
		data = append(data, KeyValueStream(codec, v, boxes[i], f.ValueBytes)...)
	}
	// var "a": (1+1+8+4)*4 bytes; var "longername": (1+10+8+4)*9 bytes.
	want := 14*4 + 23*9
	if len(data) != want {
		t.Errorf("stream = %d bytes, want %d", len(data), want)
	}
}

package keys

import (
	"testing"

	"scikey/internal/grid"
	"scikey/internal/serial"
	"scikey/internal/sfc"
)

// gridKeyBytes encodes k the way a mapper does: EncodeGrid into a DataOutput.
func gridKeyBytes(c *Codec, k GridKey) []byte {
	out := serial.NewDataOutput(32)
	c.EncodeGrid(out, k)
	return out.Bytes()
}

func TestGridKeyEncodedSizes(t *testing.T) {
	// The introduction's byte accounting: in 4-D, a key with a 4-byte
	// variable index is 20 bytes; with Text "windspeed1" it is 27 bytes
	// (6.75x a 4-byte value).
	coord := grid.Coord{0, 1, 2, 3}
	byIndex := &Codec{Rank: 4, Mode: VarByIndex}
	k := GridKey{Var: VarRef{Name: "windspeed1", Index: 0}, Coord: coord}
	if got := len(gridKeyBytes(byIndex, k)); got != 20 {
		t.Errorf("index-mode key = %d bytes, want 20", got)
	}
	byName := &Codec{Rank: 4, Mode: VarByName}
	if got := len(gridKeyBytes(byName, k)); got != 27 {
		t.Errorf("name-mode key = %d bytes, want 27", got)
	}
	none := &Codec{Rank: 4, Mode: VarNone}
	if got := len(gridKeyBytes(none, k)); got != 16 {
		t.Errorf("no-var key = %d bytes, want 16", got)
	}
}

func TestGridKeyRoundTrip(t *testing.T) {
	for _, mode := range []VarMode{VarNone, VarByIndex, VarByName} {
		c := &Codec{Rank: 3, Mode: mode, Names: []string{"temp", "windspeed1"}}
		k := GridKey{Var: VarRef{Name: "windspeed1", Index: 1}, Coord: grid.Coord{-1, 5, 99}}
		enc := gridKeyBytes(c, k)
		got, err := c.DecodeGrid(serial.NewDataInput(enc))
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if !got.Coord.Equal(k.Coord) {
			t.Errorf("mode %v: coord %v, want %v", mode, got.Coord, k.Coord)
		}
		switch mode {
		case VarByIndex:
			if got.Var.Index != 1 || got.Var.Name != "windspeed1" {
				t.Errorf("index mode: var = %+v", got.Var)
			}
		case VarByName:
			if got.Var.Name != "windspeed1" {
				t.Errorf("name mode: var = %+v", got.Var)
			}
		}
	}
}

func TestAggKeyRoundTrip(t *testing.T) {
	c := &Codec{Rank: 2, Mode: VarByName}
	k := AggKey{Var: VarRef{Name: "v"}, Range: sfc.IndexRange{Lo: 5, Hi: 14}}
	enc := c.AggKeyBytes(k)
	if len(enc) != 2+16 {
		t.Errorf("agg key = %d bytes, want 18", len(enc))
	}
	got, err := c.DecodeAgg(serial.NewDataInput(enc))
	if err != nil {
		t.Fatal(err)
	}
	if got.Var.Name != "v" || got.Range != k.Range {
		t.Errorf("decoded %v, want %v", got, k)
	}
}

func TestCompareGrid(t *testing.T) {
	a := GridKey{Var: VarRef{Name: "a"}, Coord: grid.Coord{1, 2}}
	b := GridKey{Var: VarRef{Name: "b"}, Coord: grid.Coord{0, 0}}
	if CompareGrid(a, b) >= 0 {
		t.Error("variable must dominate coordinate")
	}
	c := GridKey{Var: VarRef{Name: "a"}, Coord: grid.Coord{1, 3}}
	if CompareGrid(a, c) >= 0 || CompareGrid(c, a) <= 0 || CompareGrid(a, a) != 0 {
		t.Error("coordinate ordering wrong")
	}
}

func TestCompareAgg(t *testing.T) {
	mk := func(lo, hi uint64) AggKey { return AggKey{Range: sfc.IndexRange{Lo: lo, Hi: hi}} }
	if CompareAgg(mk(1, 5), mk(2, 3)) >= 0 {
		t.Error("Lo must dominate")
	}
	if CompareAgg(mk(1, 3), mk(1, 5)) >= 0 {
		t.Error("Hi breaks Lo ties")
	}
	if CompareAgg(mk(1, 5), mk(1, 5)) != 0 {
		t.Error("equal keys must compare 0")
	}
	varA := AggKey{Var: VarRef{Index: 0}, Range: sfc.IndexRange{Lo: 9, Hi: 10}}
	varB := AggKey{Var: VarRef{Index: 1}, Range: sfc.IndexRange{Lo: 0, Hi: 1}}
	if CompareAgg(varA, varB) >= 0 {
		t.Error("variable must dominate range")
	}
}

func TestRawComparators(t *testing.T) {
	c := &Codec{Rank: 2, Mode: VarByName}
	g1 := gridKeyBytes(c, GridKey{Var: VarRef{Name: "v"}, Coord: grid.Coord{-1, 0}})
	g2 := gridKeyBytes(c, GridKey{Var: VarRef{Name: "v"}, Coord: grid.Coord{0, 0}})
	// Negative coordinates break naive byte comparison; the raw comparator
	// must still order (-1,0) before (0,0).
	if c.RawCompareGrid(g1, g2) >= 0 {
		t.Error("RawCompareGrid must handle negative coordinates")
	}
	a1 := c.AggKeyBytes(AggKey{Var: VarRef{Name: "v"}, Range: sfc.IndexRange{Lo: 3, Hi: 9}})
	a2 := c.AggKeyBytes(AggKey{Var: VarRef{Name: "v"}, Range: sfc.IndexRange{Lo: 4, Hi: 5}})
	if c.RawCompareAgg(a1, a2) >= 0 || c.RawCompareAgg(a2, a1) <= 0 || c.RawCompareAgg(a1, a1) != 0 {
		t.Error("RawCompareAgg ordering wrong")
	}
}

func TestAlignRange(t *testing.T) {
	r := sfc.IndexRange{Lo: 5, Hi: 14}
	got := AlignRange(r, 8)
	want := sfc.IndexRange{Lo: 0, Hi: 16}
	if got != want {
		t.Errorf("AlignRange = %v, want %v", got, want)
	}
	if AlignRange(r, 1) != r || AlignRange(r, 0) != r {
		t.Error("align <= 1 must be identity")
	}
	// Already aligned ranges are unchanged.
	if got := AlignRange(sfc.IndexRange{Lo: 8, Hi: 16}, 8); got != (sfc.IndexRange{Lo: 8, Hi: 16}) {
		t.Errorf("aligned range changed: %v", got)
	}
}

// TestEncodeGridRecordStride: the record stride the byte transform has to
// find is fixed by dataset metadata (Section III: "the dimensionality of the
// data, the length of the variable name, and the shape of the data"). A
// rank-3 "windspeed1" key is 11 (Text) + 12 (coords) = 23 bytes, so with a
// 4-byte value the raw record stride is 27.
func TestEncodeGridRecordStride(t *testing.T) {
	c := &Codec{Rank: 3, Mode: VarByName}
	key := gridKeyBytes(c, GridKey{Var: VarRef{Name: "windspeed1"}, Coord: make(grid.Coord, c.Rank)})
	if got := len(key) + 4; got != 27 {
		t.Errorf("raw record stride = %d, want 27", got)
	}
}

package grid

import "testing"

func TestCoordBasics(t *testing.T) {
	a := Coord{1, 2, 3}
	b := a.Clone()
	b[0] = 9
	if a[0] != 1 {
		t.Error("Clone must not alias")
	}
	if !a.Equal(Coord{1, 2, 3}) || a.Equal(Coord{1, 2}) || a.Equal(Coord{1, 2, 4}) {
		t.Error("Equal misbehaves")
	}
	if a.Compare(Coord{1, 2, 4}) != -1 || a.Compare(Coord{1, 2, 2}) != 1 || a.Compare(a) != 0 {
		t.Error("Compare misbehaves")
	}
	short := Coord{1, 2}
	if a.Compare(short) != 1 || short.Compare(a) != -1 {
		t.Error("Compare rank ordering misbehaves")
	}
	if got := a.Add(Coord{1, 1, 1}); !got.Equal(Coord{2, 3, 4}) {
		t.Errorf("Add = %v", got)
	}
	if a.String() != "(1,2,3)" {
		t.Errorf("String = %q", a.String())
	}
}

func TestBoxBasics(t *testing.T) {
	b := NewBox(Coord{0, 0}, []int{10, 20})
	if b.NumCells() != 200 || b.Empty() || b.Rank() != 2 {
		t.Fatalf("basic properties wrong: %v", b)
	}
	if !b.Contains(Coord{0, 0}) || !b.Contains(Coord{9, 19}) || b.Contains(Coord{10, 0}) || b.Contains(Coord{0, -1}) {
		t.Error("Contains misbehaves")
	}
	if b.String() != "(0,0)+[10,20]" {
		t.Errorf("String = %q", b.String())
	}
}

func TestBoxIntersect(t *testing.T) {
	// The paper's Section IV-C example: mapper outputs (-1,-1)..(10,10) and
	// (-1,9)..(10,20) overlap in (-1,9)..(10,10).
	a := NewBox(Coord{-1, -1}, []int{12, 12})
	b := NewBox(Coord{-1, 9}, []int{12, 12})
	inter, ok := a.Intersect(b)
	if !ok {
		t.Fatal("expected overlap")
	}
	want := NewBox(Coord{-1, 9}, []int{12, 2})
	if !inter.Equal(want) {
		t.Errorf("Intersect = %v, want %v", inter, want)
	}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("Overlaps must be symmetric")
	}
	far := NewBox(Coord{100, 100}, []int{1, 1})
	if _, ok := a.Intersect(far); ok {
		t.Error("disjoint boxes must not intersect")
	}
}

func TestBoxContainsBox(t *testing.T) {
	outer := NewBox(Coord{0, 0}, []int{10, 10})
	if !outer.ContainsBox(NewBox(Coord{2, 2}, []int{3, 3})) {
		t.Error("inner box should be contained")
	}
	if outer.ContainsBox(NewBox(Coord{8, 8}, []int{5, 5})) {
		t.Error("straddling box should not be contained")
	}
	if !outer.ContainsBox(NewBox(Coord{0, 0}, []int{0, 5})) {
		t.Error("empty box is contained")
	}
}

func TestBoxExpand(t *testing.T) {
	b := NewBox(Coord{0, 0}, []int{10, 10})
	e := b.Expand(1)
	if !e.Equal(NewBox(Coord{-1, -1}, []int{12, 12})) {
		t.Errorf("Expand = %v", e)
	}
	shrunk := NewBox(Coord{0, 0}, []int{1, 1}).Expand(-1)
	if !shrunk.Empty() {
		t.Errorf("over-shrunk box should be empty, got %v", shrunk)
	}
}

func TestForEachRowMajor(t *testing.T) {
	b := NewBox(Coord{1, 2}, []int{2, 3})
	want := []Coord{{1, 2}, {1, 3}, {1, 4}, {2, 2}, {2, 3}, {2, 4}}
	i := 0
	ForEach(b, func(c Coord) {
		if i >= len(want) || !c.Equal(want[i]) {
			t.Fatalf("ForEach cell %d = %v, want %v", i, c, want)
		}
		i++
	})
	if i != len(want) {
		t.Errorf("ForEach visited %d cells", i)
	}
}

func TestForEachEmpty(t *testing.T) {
	b := NewBox(Coord{0, 0}, []int{0, 5})
	ForEach(b, func(Coord) { t.Error("ForEach on empty box must not call fn") })
}

func TestRowMajorIndexRoundTrip(t *testing.T) {
	b := NewBox(Coord{-2, 5, 1}, []int{3, 4, 5})
	i := int64(0)
	ForEach(b, func(c Coord) {
		if got := RowMajorIndex(b, c); got != i {
			t.Fatalf("RowMajorIndex(%v) = %d, want %d", c, got, i)
		}
		if back := CoordAtRowMajor(b, i); !back.Equal(c) {
			t.Fatalf("CoordAtRowMajor(%d) = %v, want %v", i, back, c)
		}
		i++
	})
	if i != b.NumCells() {
		t.Fatalf("visited %d cells, want %d", i, b.NumCells())
	}
}

func TestPartition(t *testing.T) {
	b := NewBox(Coord{0, 0}, []int{10, 7})
	parts := Partition(b, 3)
	if len(parts) != 3 {
		t.Fatalf("got %d parts", len(parts))
	}
	var total int64
	for i, p := range parts {
		total += p.NumCells()
		if i > 0 && parts[i-1].Corner[0]+parts[i-1].Size[0] != p.Corner[0] {
			t.Errorf("parts %d and %d not contiguous", i-1, i)
		}
	}
	if total != b.NumCells() {
		t.Errorf("partition covers %d cells, want %d", total, b.NumCells())
	}
	// More parts than rows collapses to rows.
	if got := Partition(NewBox(Coord{0}, []int{2}), 5); len(got) != 2 {
		t.Errorf("Partition beyond rows: got %d parts", len(got))
	}
	if got := Partition(b, 1); len(got) != 1 || !got[0].Equal(b) {
		t.Errorf("Partition(1) = %v", got)
	}
}

// Package keys defines the intermediate key types exchanged between mappers
// and reducers, their serialized forms, orderings, and the splitting algebra
// that the paper adds to Hadoop (Section IV-B): aggregate keys are not
// atomic, so they must be splittable at the partitioner (when one aggregate
// routes to several reducers) and at the reducer (when unequal aggregates
// overlap, Fig. 7).
//
// Two key shapes exist:
//
//   - GridKey: one grid cell — a variable reference plus an n-dimensional
//     coordinate. This is Hadoop's natural per-cell key and the source of
//     the paper's 450-625% intermediate-data overhead.
//   - AggKey: a contiguous range of space-filling-curve indices for one
//     variable. Its value payload is the concatenation of the cell values
//     in curve order, so the key cost is amortized over the whole range.
package keys

import (
	"fmt"

	"scikey/internal/grid"
	"scikey/internal/serial"
	"scikey/internal/sfc"
)

// VarMode selects how a key's variable reference is serialized — the
// difference between the introduction's 26,000,006-byte (4-byte index) and
// 33,000,006-byte ("windspeed1" Text) intermediate files.
type VarMode byte

const (
	// VarNone omits the variable from the byte form (single-variable jobs).
	VarNone VarMode = iota
	// VarByIndex serializes the variable as a 4-byte int index.
	VarByIndex
	// VarByName serializes the variable as Text (VInt length + bytes).
	VarByName
)

// String returns the mode name.
func (m VarMode) String() string {
	switch m {
	case VarNone:
		return "none"
	case VarByIndex:
		return "index"
	case VarByName:
		return "name"
	}
	return fmt.Sprintf("VarMode(%d)", byte(m))
}

// VarRef identifies a variable both ways; Codec picks the byte form.
type VarRef struct {
	Name  string
	Index int32
}

// GridKey addresses one cell of one variable's grid.
type GridKey struct {
	Var   VarRef
	Coord grid.Coord
}

// AggKey addresses a contiguous run of curve indices of one variable.
type AggKey struct {
	Var   VarRef
	Range sfc.IndexRange
}

// Codec serializes and compares keys for a fixed job configuration: the
// grid rank and variable mode are job-level constants in SciHadoop, exactly
// as a Hadoop key class is fixed per job.
type Codec struct {
	// Rank is the grid dimensionality for GridKeys.
	Rank int
	// Mode selects the variable byte form.
	Mode VarMode
	// Names maps variable indices back to names when Mode == VarByIndex.
	// Optional; used only for pretty-printing decoded keys.
	Names []string
}

func (c *Codec) writeVar(out *serial.DataOutput, v VarRef) {
	switch c.Mode {
	case VarNone:
	case VarByIndex:
		out.WriteI32(v.Index)
	case VarByName:
		out.WriteText(v.Name)
	}
}

func (c *Codec) readVar(in *serial.DataInput) (VarRef, error) {
	switch c.Mode {
	case VarNone:
		return VarRef{}, nil
	case VarByIndex:
		idx, err := in.ReadI32()
		if err != nil {
			return VarRef{}, err
		}
		v := VarRef{Index: idx}
		if int(idx) >= 0 && int(idx) < len(c.Names) {
			v.Name = c.Names[idx]
		}
		return v, nil
	case VarByName:
		name, err := in.ReadText()
		return VarRef{Name: name}, err
	}
	return VarRef{}, fmt.Errorf("keys: bad VarMode %d", c.Mode)
}

// EncodeGrid appends k's byte form to out: [var][coord0 i32]...[coordN i32].
// With VarByName and "windspeed1" in 4-D this is the paper's 27-byte key
// (6.75x a 4-byte value).
func (c *Codec) EncodeGrid(out *serial.DataOutput, k GridKey) {
	if len(k.Coord) != c.Rank {
		panic(fmt.Sprintf("keys: GridKey rank %d, codec rank %d", len(k.Coord), c.Rank))
	}
	c.writeVar(out, k.Var)
	for _, x := range k.Coord {
		out.WriteI32(int32(x))
	}
}

// DecodeGrid parses a GridKey from in.
func (c *Codec) DecodeGrid(in *serial.DataInput) (GridKey, error) {
	v, err := c.readVar(in)
	if err != nil {
		return GridKey{}, err
	}
	coord := make(grid.Coord, c.Rank)
	for i := range coord {
		x, err := in.ReadI32()
		if err != nil {
			return GridKey{}, err
		}
		coord[i] = int(x)
	}
	return GridKey{Var: v, Coord: coord}, nil
}

// EncodeAgg appends k's byte form to out: [var][lo u64][hi u64]. The
// (corner, size)-style constant cost of Section I: 16 bytes plus the
// variable, independent of how many cells the range covers.
func (c *Codec) EncodeAgg(out *serial.DataOutput, k AggKey) {
	c.writeVar(out, k.Var)
	out.WriteU64(k.Range.Lo)
	out.WriteU64(k.Range.Hi)
}

// AggKeyBytes returns a fresh encoding of k.
func (c *Codec) AggKeyBytes(k AggKey) []byte {
	out := serial.NewDataOutput(24)
	c.EncodeAgg(out, k)
	return out.Bytes()
}

// DecodeAgg parses an AggKey from in.
func (c *Codec) DecodeAgg(in *serial.DataInput) (AggKey, error) {
	v, err := c.readVar(in)
	if err != nil {
		return AggKey{}, err
	}
	lo, err := in.ReadU64()
	if err != nil {
		return AggKey{}, err
	}
	hi, err := in.ReadU64()
	if err != nil {
		return AggKey{}, err
	}
	return AggKey{Var: v, Range: sfc.IndexRange{Lo: lo, Hi: hi}}, nil
}

// CompareGrid orders GridKeys by variable then coordinate (row-major).
func CompareGrid(a, b GridKey) int {
	if c := compareVar(a.Var, b.Var); c != 0 {
		return c
	}
	return a.Coord.Compare(b.Coord)
}

// CompareAgg orders AggKeys by variable, then Lo, then Hi. Sorting by Lo
// first is what lets the reduce-side merge discover overlaps with a
// bounded-lookahead sweep.
func CompareAgg(a, b AggKey) int {
	if c := compareVar(a.Var, b.Var); c != 0 {
		return c
	}
	switch {
	case a.Range.Lo < b.Range.Lo:
		return -1
	case a.Range.Lo > b.Range.Lo:
		return 1
	case a.Range.Hi < b.Range.Hi:
		return -1
	case a.Range.Hi > b.Range.Hi:
		return 1
	}
	return 0
}

func compareVar(a, b VarRef) int {
	switch {
	case a.Index < b.Index:
		return -1
	case a.Index > b.Index:
		return 1
	case a.Name < b.Name:
		return -1
	case a.Name > b.Name:
		return 1
	}
	return 0
}

// RawCompareGrid compares two encoded GridKeys without deserializing. Raw
// byte comparison is semantically correct for the coordinate section only
// when coordinates are non-negative (big-endian two's complement breaks
// lexicographic order at the sign bit), so this decodes; the engine treats
// it as the grouping comparator.
func (c *Codec) RawCompareGrid(a, b []byte) int {
	ka, err := c.DecodeGrid(serial.NewDataInput(a))
	if err != nil {
		return serial.CompareBytes(a, b)
	}
	kb, err := c.DecodeGrid(serial.NewDataInput(b))
	if err != nil {
		return serial.CompareBytes(a, b)
	}
	return CompareGrid(ka, kb)
}

// RawCompareAgg compares two encoded AggKeys without full deserialization.
func (c *Codec) RawCompareAgg(a, b []byte) int {
	ka, err := c.DecodeAgg(serial.NewDataInput(a))
	if err != nil {
		return serial.CompareBytes(a, b)
	}
	kb, err := c.DecodeAgg(serial.NewDataInput(b))
	if err != nil {
		return serial.CompareBytes(a, b)
	}
	return CompareAgg(ka, kb)
}

// String renders a GridKey for diagnostics.
func (k GridKey) String() string {
	if k.Var.Name != "" {
		return k.Var.Name + k.Coord.String()
	}
	return fmt.Sprintf("var%d%s", k.Var.Index, k.Coord)
}

// String renders an AggKey for diagnostics.
func (k AggKey) String() string {
	v := k.Var.Name
	if v == "" {
		v = fmt.Sprintf("var%d", k.Var.Index)
	}
	return fmt.Sprintf("%s[%d,%d)", v, k.Range.Lo, k.Range.Hi)
}

// AlignRange expands r outward to multiples of align (Section IV-C: keys
// are allowed to contain empty space so that overlapping keys are more
// likely to be exactly equal, reducing splits).
func AlignRange(r sfc.IndexRange, align uint64) sfc.IndexRange {
	if align <= 1 {
		return r
	}
	lo := r.Lo / align * align
	hi := (r.Hi + align - 1) / align * align
	return sfc.IndexRange{Lo: lo, Hi: hi}
}

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
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"

	"scikey/internal/binutil"
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

// The raw comparators order encoded keys straight from their bytes, as
// Hadoop's RawComparators do: sort, merge and grouping call one per record
// pair, so they decode nothing and allocate nothing. A plain byte comparison
// would be wrong for the coordinate section (big-endian two's complement
// breaks lexicographic order at the sign bit), so each locates the variable
// section, compares it, and then compares the fixed-width fields as the
// integers they are. A key that would not decode — too short, a negative
// name length, a negative box size — makes the pair fall back to
// serial.CompareBytes; bytes past the last field are ignored.
//
// Nearly every pair a job compares names one variable twice, so the grid
// and agg comparators first try sameVar: when both keys' variable sections
// are the same bytes and both keys hold their fields, the order is the
// fields' alone. Every other pair takes the general path.

// RawCompareGrid compares two encoded GridKeys: variable, then the
// coordinates as signed int32s in row-major order.
func (c *Codec) RawCompareGrid(a, b []byte) int {
	fixed := 4 * c.Rank
	if end, ok := c.sameVar(a, b, fixed); ok {
		return compareI32s(a[end:end+fixed], b[end:end+fixed])
	}
	va, fa, _, oka := c.sections(a, fixed)
	vb, fb, _, okb := c.sections(b, fixed)
	if !oka || !okb {
		return serial.CompareBytes(a, b)
	}
	if d := c.compareVarBytes(va, vb); d != 0 {
		return d
	}
	return compareI32s(fa, fb)
}

// RawCompareAgg compares two encoded AggKeys: variable, then Lo, then Hi.
// The bounds are unsigned and big-endian, so their 16 bytes already sort
// in that order.
func (c *Codec) RawCompareAgg(a, b []byte) int {
	if end, ok := c.sameVar(a, b, 16); ok {
		return compareU64s(a[end:end+16], b[end:end+16])
	}
	va, fa, _, oka := c.sections(a, 16)
	vb, fb, _, okb := c.sections(b, 16)
	if !oka || !okb {
		return serial.CompareBytes(a, b)
	}
	if d := c.compareVarBytes(va, vb); d != 0 {
		return d
	}
	return compareU64s(fa, fb)
}

// AggBounds reads an encoded AggKey in place, for the Section IV rewrites
// that split keys without decoding them. prefix is the variable section as
// encoded (a VarByName length prefix included), so prefix ‖ lo ‖ hi —
// AppendAggKey — is a key of the same variable. ok is false unless k is
// exactly one AggKey of at least one cell: too short, a negative or
// overlong name length, bytes after hi (which a pass-through would
// otherwise ship), or hi <= lo.
func (c *Codec) AggBounds(k []byte) (prefix []byte, lo, hi uint64, ok bool) {
	_, f, end, ok := c.sections(k, 16)
	if !ok || len(k) != end+16 {
		return nil, 0, 0, false
	}
	lo, hi = binary.BigEndian.Uint64(f), binary.BigEndian.Uint64(f[8:])
	if hi <= lo {
		return nil, 0, 0, false
	}
	return k[:end], lo, hi, true
}

// AppendAggKey appends the AggKey prefix ‖ lo ‖ hi to dst, where prefix is
// a variable section AggBounds returned.
func AppendAggKey(dst, prefix []byte, lo, hi uint64) []byte {
	dst = append(dst, prefix...)
	dst = binary.BigEndian.AppendUint64(dst, lo)
	return binary.BigEndian.AppendUint64(dst, hi)
}

// sections splits an encoded key into the bytes that order its variable
// (the 4-byte index, or the name without its length prefix) and the fixed
// bytes of fields that follow; k[:end] is the variable section as encoded.
// ok is false where decoding k would fail.
func (c *Codec) sections(k []byte, fixed int) (v, f []byte, end int, ok bool) {
	start := 0
	switch c.Mode {
	case VarNone:
	case VarByIndex:
		end = 4
	case VarByName:
		n, w, err := binutil.DecodeVInt(k)
		if err != nil || n < 0 || int(n) > len(k)-w {
			return nil, nil, 0, false
		}
		start, end = w, w+int(n)
	default:
		return nil, nil, 0, false
	}
	if len(k)-end < fixed {
		return nil, nil, 0, false
	}
	return k[start:end], k[end : end+fixed], end, true
}

// compareVarBytes orders two variable sections returned by sections.
func (c *Codec) compareVarBytes(a, b []byte) int {
	if c.Mode == VarByIndex {
		return compareI32s(a, b)
	}
	return bytes.Compare(a, b)
}

// varEnd returns where k's variable section ends, when that is a
// constant offset (VarNone 0, VarByIndex 4) or one length byte away
// (VarByName, a name shorter than 128 bytes), and -1 for every other key.
// sameVar and GridWords both place the section here, so the two agree on
// which keys share one.
func (c *Codec) varEnd(k []byte) int {
	switch c.Mode {
	case VarNone:
		return 0
	case VarByIndex:
		return 4
	case VarByName:
		if len(k) > 0 && k[0] < 0x80 {
			return 1 + int(k[0])
		}
	}
	return -1
}

// sameVar reports whether a and b encode one variable in the same bytes
// and both hold fixed bytes of fields after it, which then start at end.
// It answers only where varEnd places the variable section; false sends
// the pair to the general path, which orders it the same way.
func (c *Codec) sameVar(a, b []byte, fixed int) (end int, ok bool) {
	end = c.varEnd(a)
	if end < 0 || len(a) < end+fixed || len(b) < end+fixed || string(a[:end]) != string(b[:end]) {
		return 0, false
	}
	return end, true
}

// GridWords returns an encoded GridKey's coordinates as two words that
// order the way RawCompareGrid orders keys of one variable: each int32 with
// its sign bit flipped, two to a uint64 in row-major order (hi holds
// coordinates 0 and 1, lo 2 and 3), and what the rank leaves of the words
// zero. end is where k's variable section ends, so two keys whose k[:end]
// are the same bytes compare as their (hi, lo) do, unsigned. ok is false
// where sameVar would not answer for k (a variable section varEnd cannot
// place, a key cut short in its coordinates) and for a rank outside 1–4.
// Bytes past the last coordinate are ignored, as the comparator ignores
// them.
func (c *Codec) GridWords(k []byte) (hi, lo uint64, end int, ok bool) {
	const sign = 0x8000_0000
	end = c.varEnd(k)
	if end < 0 || c.Rank < 1 || c.Rank > 4 || len(k) < end+4*c.Rank {
		return 0, 0, 0, false
	}
	f := k[end:]
	switch c.Rank {
	case 1:
		hi = uint64(binary.BigEndian.Uint32(f)^sign) << 32
	case 2:
		hi = binary.BigEndian.Uint64(f) ^ (sign<<32 | sign)
	case 3:
		hi = binary.BigEndian.Uint64(f) ^ (sign<<32 | sign)
		lo = uint64(binary.BigEndian.Uint32(f[8:])^sign) << 32
	case 4:
		hi = binary.BigEndian.Uint64(f) ^ (sign<<32 | sign)
		lo = binary.BigEndian.Uint64(f[8:]) ^ (sign<<32 | sign)
	}
	return hi, lo, end, true
}

// compareI32s orders two equally long runs of big-endian int32s, signed,
// first difference wins. It reads them 8 bytes at a time: with each sign
// bit flipped, two int32s compare as one uint64.
func compareI32s(a, b []byte) int {
	const sign = 0x8000_0000
	for len(a) >= 8 && len(b) >= 8 {
		x, y := binary.BigEndian.Uint64(a)^(sign<<32|sign), binary.BigEndian.Uint64(b)^(sign<<32|sign)
		if x != y {
			return cmp.Compare(x, y)
		}
		a, b = a[8:], b[8:]
	}
	if len(a) >= 4 && len(b) >= 4 {
		return cmp.Compare(binary.BigEndian.Uint32(a)^sign, binary.BigEndian.Uint32(b)^sign)
	}
	return 0
}

// compareU64s orders two equally long runs of big-endian uint64s, first
// difference wins.
func compareU64s(a, b []byte) int {
	for len(a) >= 8 && len(b) >= 8 {
		x, y := binary.BigEndian.Uint64(a), binary.BigEndian.Uint64(b)
		if x != y {
			return cmp.Compare(x, y)
		}
		a, b = a[8:], b[8:]
	}
	return 0
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

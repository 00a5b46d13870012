package keys

import (
	"fmt"

	"scikey/internal/grid"
	"scikey/internal/serial"
)

// BoxKey is the n-dimensional aggregate key of the paper's introduction:
// "keys are represented in aggregate as a (corner, size) pair". Section IV
// sidesteps this representation ("aggregation directly in the keys'
// N-dimensional space ... is difficult", Fig. 5) in favor of curve ranges;
// the boxagg package implements the greedy n-D alternative and uses these
// keys.
type BoxKey struct {
	Var VarRef
	Box grid.Box
}

// String renders the key for diagnostics.
func (k BoxKey) String() string {
	v := k.Var.Name
	if v == "" {
		v = fmt.Sprintf("var%d", k.Var.Index)
	}
	return v + k.Box.String()
}

// EncodeBox appends k's byte form: [var][corner i32 x rank][size i32 x rank].
func (c *Codec) EncodeBox(out *serial.DataOutput, k BoxKey) {
	if k.Box.Rank() != c.Rank {
		panic(fmt.Sprintf("keys: BoxKey rank %d, codec rank %d", k.Box.Rank(), c.Rank))
	}
	c.writeVar(out, k.Var)
	for _, x := range k.Box.Corner {
		out.WriteI32(int32(x))
	}
	for _, s := range k.Box.Size {
		out.WriteI32(int32(s))
	}
}

// BoxKeyBytes returns a fresh encoding of k.
func (c *Codec) BoxKeyBytes(k BoxKey) []byte {
	out := serial.NewDataOutput(8*c.Rank + 16)
	c.EncodeBox(out, k)
	return out.Bytes()
}

// DecodeBox parses a BoxKey from in.
func (c *Codec) DecodeBox(in *serial.DataInput) (BoxKey, error) {
	v, err := c.readVar(in)
	if err != nil {
		return BoxKey{}, err
	}
	corner := make(grid.Coord, c.Rank)
	for i := range corner {
		x, err := in.ReadI32()
		if err != nil {
			return BoxKey{}, err
		}
		corner[i] = int(x)
	}
	size := make([]int, c.Rank)
	for i := range size {
		s, err := in.ReadI32()
		if err != nil {
			return BoxKey{}, err
		}
		if s < 0 {
			return BoxKey{}, fmt.Errorf("keys: negative box size %d", s)
		}
		size[i] = int(s)
	}
	return BoxKey{Var: v, Box: grid.Box{Corner: corner, Size: size}}, nil
}

// CompareBox orders BoxKeys by variable, then corner (row-major), then
// size. Sorting by corner first lets the reduce-side sweep find overlaps.
func CompareBox(a, b BoxKey) int {
	if c := compareVar(a.Var, b.Var); c != 0 {
		return c
	}
	if c := a.Box.Corner.Compare(b.Box.Corner); c != 0 {
		return c
	}
	for i := range a.Box.Size {
		if a.Box.Size[i] != b.Box.Size[i] {
			if a.Box.Size[i] < b.Box.Size[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// RawCompareBox compares two encoded BoxKeys: variable, then the corner and
// the size as signed int32s. See RawCompareGrid for the shared rules.
func (c *Codec) RawCompareBox(a, b []byte) int {
	va, fa, _, oka := c.sections(a, 8*c.Rank)
	vb, fb, _, okb := c.sections(b, 8*c.Rank)
	if !oka || !okb || hasNegativeI32(fa[4*c.Rank:]) || hasNegativeI32(fb[4*c.Rank:]) {
		return serial.CompareBytes(a, b)
	}
	if d := c.compareVarBytes(va, vb); d != 0 {
		return d
	}
	return compareI32s(fa, fb)
}

// hasNegativeI32 reports whether any big-endian int32 in p has its sign bit
// set — a box size DecodeBox rejects.
func hasNegativeI32(p []byte) bool {
	for i := 0; i+4 <= len(p); i += 4 {
		if p[i]&0x80 != 0 {
			return true
		}
	}
	return false
}

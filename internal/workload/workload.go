// Package workload generates the synthetic inputs of the paper's
// experiments: grid-walk coordinate streams (Fig. 3/4), serialized
// key/value record streams (Fig. 2 and the introduction), the
// fixed-length-records-with-markers stream from the stride-selection
// discussion in Section III, and deterministic value fields for the
// sliding-median query.
package workload

import (
	"encoding/binary"

	"scikey/internal/grid"
	"scikey/internal/keys"
	"scikey/internal/serial"
)

// GridWalkTriples returns the raw byte stream of int32 coordinate triples
// from walking an n×n×n grid in row-major order — the input of Fig. 3
// (n=100 gives the 12,000,000-byte file).
func GridWalkTriples(n int) []byte {
	return GridWalkStream(grid.NewBox(grid.Coord{0, 0, 0}, []int{n, n, n}))
}

// GridWalkStream serializes every coordinate of box as big-endian int32s in
// row-major order.
func GridWalkStream(box grid.Box) []byte {
	out := make([]byte, 0, box.NumCells()*int64(4*box.Rank()))
	grid.ForEach(box, func(c grid.Coord) {
		for _, x := range c {
			out = binary.BigEndian.AppendUint32(out, uint32(x))
		}
	})
	return out
}

// KeyValueStream serializes one (GridKey, value) record per cell of box
// using codec, with the per-cell value produced by val. This is the mapper
// output stream whose size the introduction quantifies.
func KeyValueStream(codec *keys.Codec, v keys.VarRef, box grid.Box, val func(grid.Coord) []byte) []byte {
	out := serial.NewDataOutput(int(box.NumCells() * 24))
	grid.ForEach(box, func(c grid.Coord) {
		codec.EncodeGrid(out, keys.GridKey{Var: v, Coord: c})
		out.Write(val(c))
	})
	return append([]byte(nil), out.Bytes()...)
}

// RecordGroups builds the stride-selection counterexample of Section III:
// groups of fixed-length records separated by small markers. "The obvious
// choice for the stride is the length of a record, but the markers break
// the stride's regularity ... The optimal stride actually turns out to be
// the size of an entire group plus a marker."
func RecordGroups(recLen, recsPerGroup, groups int, marker []byte) []byte {
	var out []byte
	counter := uint32(0)
	for g := 0; g < groups; g++ {
		for r := 0; r < recsPerGroup; r++ {
			rec := make([]byte, recLen)
			binary.BigEndian.PutUint32(rec, counter)
			counter++
			for i := 4; i < recLen; i++ {
				rec[i] = byte(i) // constant filler per offset
			}
			out = append(out, rec...)
		}
		out = append(out, marker...)
	}
	return out
}

// Field is a deterministic integer field over a grid, used as query input.
// Values are a cheap hash of the coordinate so reruns and split layouts
// always agree.
type Field struct {
	// Extent is the dataset's domain.
	Extent grid.Box
	// Name is the variable name ("windspeed1" in the paper's examples).
	Name string
}

// Value returns the int32 value at c.
func (f *Field) Value(c grid.Coord) int32 {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	for _, x := range c {
		h ^= uint64(uint32(x))
		h *= 1099511628211
	}
	// Keep values small and positive so medians are easy to eyeball.
	return int32(h % 1000)
}

// ValueBytes returns the 4-byte big-endian encoding of Value(c).
func (f *Field) ValueBytes(c grid.Coord) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(f.Value(c)))
	return b[:]
}

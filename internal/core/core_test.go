package core

import (
	"testing"

	"scikey/internal/cluster"
	"scikey/internal/grid"
	"scikey/internal/hdfs"
	"scikey/internal/keys"
	"scikey/internal/scihadoop"
	"scikey/internal/workload"
)

func setup(t *testing.T, side int) (*hdfs.FileSystem, scihadoop.QueryConfig, *workload.Field) {
	t.Helper()
	extent := grid.NewBox(grid.Coord{0, 0}, []int{side, side})
	fs := hdfs.New(1<<20, 1, []string{"n0", "n1", "n2", "n3", "n4"})
	ds := scihadoop.Dataset{Path: "/data/w.arr", Var: keys.VarRef{Name: "windspeed1"}, Extent: extent}
	field := &workload.Field{Extent: extent, Name: ds.Var.Name}
	if err := scihadoop.Store(fs, ds, field); err != nil {
		t.Fatal(err)
	}
	return fs, scihadoop.QueryConfig{DS: ds, NumSplits: 4, NumReducers: 3}, field
}

func TestAllStrategiesAgree(t *testing.T) {
	fs, qcfg, field := setup(t, 20)
	want := scihadoop.Reference(field, qcfg.DS.Extent, 1, scihadoop.Median)
	clus := cluster.Paper()
	strategies := []Strategy{
		{Kind: Baseline},
		{Kind: Baseline, Codec: "transform+zlib"},
		{Kind: Baseline, Codec: "transform+gzip"},
		{Kind: Aggregation},
		{Kind: Aggregation, Curve: "hilbert"},
		{Kind: BoxAggregation},
		// Every key shape honours its codec.
		{Kind: Baseline, Codec: "zlib"},
		{Kind: Aggregation, Codec: "zlib"},
		{Kind: BoxAggregation, Codec: "block+transform+zlib"},
	}
	reports := make([]*Report, len(strategies))
	for i, s := range strategies {
		q := qcfg
		q.OutputPath = "/out/" + s.Name()
		rep, err := RunQuery(fs, q, s, clus, true)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		reports[i] = rep
		if len(rep.Output) != len(want) {
			t.Fatalf("%s: %d cells, want %d", s.Name(), len(rep.Output), len(want))
		}
		for k, w := range want {
			if rep.Output[k] != w {
				t.Fatalf("%s: cell %s = %d, want %d", s.Name(), k, rep.Output[k], w)
			}
		}
	}

	base := reports[0]
	// Rank-2 keys are 19 bytes ("windspeed1" Text + two int32 coords) vs
	// 4-byte values: a 4.75x key/value ratio.
	if base.KeyBytes*4 != base.ValueBytes*19 {
		t.Errorf("baseline key/value bytes = %d/%d, want exact 19:4 ratio",
			base.KeyBytes, base.ValueBytes)
	}
	// The transform codec shrinks materialized bytes, leaves record count
	// alone.
	bt := reports[1]
	if bt.MaterializedBytes >= base.MaterializedBytes {
		t.Errorf("transform did not shrink bytes: %d vs %d", bt.MaterializedBytes, base.MaterializedBytes)
	}
	if bt.MapOutputRecords != base.MapOutputRecords {
		t.Error("transform must not change record count")
	}
	// Aggregation shrinks both records and bytes, and performs splits.
	agg := reports[3]
	if agg.MaterializedBytes >= base.MaterializedBytes {
		t.Errorf("aggregation did not shrink bytes: %d vs %d", agg.MaterializedBytes, base.MaterializedBytes)
	}
	if agg.MapOutputRecords >= base.MapOutputRecords {
		t.Error("aggregation must shrink record count")
	}
	if agg.OverlapSplits == 0 {
		t.Error("aggregation must split overlapping keys")
	}
	if r := agg.Reduction(base); r <= 0 || r > 1 {
		t.Errorf("Reduction = %f", r)
	}
	if base.Reduction(base) != 0 {
		t.Error("self-reduction must be 0")
	}
	_ = base.RuntimeDelta(base)
	// A codec under any key shape shrinks its bytes and keeps its records.
	for i, uncoded := range map[int]int{6: 0, 7: 3, 8: 5} {
		coded, plain := reports[i], reports[uncoded]
		if coded.MaterializedBytes >= plain.MaterializedBytes || coded.MapOutputRecords != plain.MapOutputRecords {
			t.Errorf("%s: %d B in %d records, %s %d B in %d", coded.Strategy, coded.MaterializedBytes,
				coded.MapOutputRecords, plain.Strategy, plain.MaterializedBytes, plain.MapOutputRecords)
		}
	}
}

func TestStrategyNames(t *testing.T) {
	cases := map[string]Strategy{
		"baseline":                               {Kind: Baseline, Codec: "none"},
		"transform+zlib":                         {Kind: Baseline, Codec: "transform+zlib"},
		"block+transform+bzip2":                  {Kind: Baseline, Codec: "Block+Transform+Bzip2"},
		"zlib":                                   {Kind: Baseline, Codec: "zlib"},
		"aggregation/zorder":                     {Kind: Aggregation},
		"aggregation/hilbert":                    {Kind: Aggregation, Curve: "hilbert"},
		"aggregation/zorder+zlib":                {Kind: Aggregation, Codec: "zlib"},
		"aggregation/boxes":                      {Kind: BoxAggregation},
		"aggregation/boxes+block+transform+none": {Kind: BoxAggregation, Codec: "block+transform+none"},
	}
	for want, s := range cases {
		if got := s.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
	if Baseline.String() != "baseline" || Aggregation.String() != "aggregation" ||
		BoxAggregation.String() != "box-aggregation" {
		t.Error("kind strings wrong")
	}
}

func TestUnknownCodecFails(t *testing.T) {
	fs, qcfg, _ := setup(t, 8)
	_, err := RunQuery(fs, qcfg, Strategy{Kind: Baseline, Codec: "nope"}, cluster.Paper(), false)
	if err == nil {
		t.Error("unknown codec must error")
	}
}

// TestValidateStrategyCodec: the strategy codec is a codec.Get name, checked
// before anything is built, on every key shape alike.
func TestValidateStrategyCodec(t *testing.T) {
	_, qcfg, _ := setup(t, 8)
	for name, ok := range map[string]bool{
		"": true, "zlib": true, "none": true, "gzip": true, "bzip2": true,
		"transform+zlib": true, "transform+none": true, "block+zlib": true,
		"block+transform+none": true, "BLOCK+Transform+Bzip2": true,
		"nope": false, "block+": false, "block+block+zlib": false,
		"transform+block+zlib": false, "transform+transform+zlib": false,
	} {
		for _, kind := range []StrategyKind{Baseline, Aggregation, BoxAggregation} {
			err := ValidateQuery(qcfg, Strategy{Kind: kind, Codec: name})
			if (err == nil) != ok {
				t.Errorf("%v codec %q: ValidateQuery error %v, want accepted=%v", kind, name, err, ok)
			}
		}
	}
}

func TestNoDecodeSkipsOutput(t *testing.T) {
	fs, qcfg, _ := setup(t, 8)
	rep, err := RunQuery(fs, qcfg, Strategy{Kind: Baseline}, cluster.Paper(), false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Output != nil {
		t.Error("output should not be decoded")
	}
	if rep.Estimate.Total() <= 0 {
		t.Error("estimate missing")
	}
}

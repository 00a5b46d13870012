package scihadoop

import (
	"testing"

	"scikey/internal/grid"
	"scikey/internal/hdfs"
	"scikey/internal/keys"
	"scikey/internal/mapreduce"
	"scikey/internal/workload"
)

func setup(t *testing.T, extent grid.Box) (*hdfs.FileSystem, Dataset, *workload.Field) {
	t.Helper()
	fs := hdfs.New(1<<20, 1, []string{"n0", "n1", "n2", "n3", "n4"})
	ds := Dataset{Path: "/data/windspeed1.arr", Var: keys.VarRef{Name: "windspeed1"}, Extent: extent}
	field := &workload.Field{Extent: extent, Name: ds.Var.Name}
	if err := Store(fs, ds, field); err != nil {
		t.Fatal(err)
	}
	return fs, ds, field
}

func resultsEqual(t *testing.T, label string, got, want CellResults) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d cells, want %d", label, len(got), len(want))
	}
	bad := 0
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			bad++
			if bad <= 5 {
				t.Errorf("%s: cell %s = %d, want %d (present=%v)", label, k, got[k], w, ok)
			}
		}
	}
	if bad > 5 {
		t.Errorf("%s: %d mismatched cells total", label, bad)
	}
}

func TestStoreAndSplits(t *testing.T) {
	extent := grid.NewBox(grid.Coord{0, 0}, []int{12, 8})
	fs, ds, field := setup(t, extent)
	size, err := fs.Stat(ds.Path)
	if err != nil || size != 12*8*4 {
		t.Fatalf("stored size = %d, %v", size, err)
	}
	splits, err := ds.Splits(fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 4 {
		t.Fatalf("got %d splits", len(splits))
	}
	var cells int64
	for _, s := range splits {
		cells += s.Data.(grid.Box).NumCells()
	}
	if cells != extent.NumCells() {
		t.Errorf("splits cover %d cells, want %d", cells, extent.NumCells())
	}
	// The stored bytes decode back to the field values.
	data, _ := fs.ReadAll(ds.Path)
	box := grid.NewBox(grid.Coord{0, 0}, []int{12, 8})
	grid.ForEach(box, func(c grid.Coord) {
		if got := cellValue(data, box, c); got != field.Value(c) {
			t.Fatalf("cell %v = %d, want %d", c, got, field.Value(c))
		}
	})
}

func TestWindowOffsets(t *testing.T) {
	offs := window(2, 1)
	if len(offs) != 9 {
		t.Fatalf("3x3 window has %d offsets", len(offs))
	}
	offs3 := window(3, 1)
	if len(offs3) != 27 {
		t.Fatalf("3x3x3 window has %d offsets", len(offs3))
	}
	seen := make(map[string]bool)
	for _, o := range offs {
		seen[o.String()] = true
	}
	if !seen["(0,0)"] || !seen["(-1,1)"] {
		t.Error("window offsets incomplete")
	}
}

func TestAggShrinksIntermediateData(t *testing.T) {
	// The headline effect (Section IV-D): aggregation cuts "Map output
	// materialized bytes" dramatically versus simple keys.
	extent := grid.NewBox(grid.Coord{0, 0}, []int{32, 32})
	fs, ds, _ := setup(t, extent)

	sjob, _, err := SimpleKeyJob(fs, QueryConfig{DS: ds, NumSplits: 4, NumReducers: 3, OutputPath: "/out/s"})
	if err != nil {
		t.Fatal(err)
	}
	sres, err := mapreduce.Run(sjob)
	if err != nil {
		t.Fatal(err)
	}
	ajob, _, err := AggKeyJob(fs, QueryConfig{DS: ds, NumSplits: 4, NumReducers: 3, OutputPath: "/out/a"})
	if err != nil {
		t.Fatal(err)
	}
	ares, err := mapreduce.Run(ajob)
	if err != nil {
		t.Fatal(err)
	}
	sBytes := sres.Counters.MapOutputMaterializedBytes.Value()
	aBytes := ares.Counters.MapOutputMaterializedBytes.Value()
	if aBytes*2 > sBytes {
		t.Errorf("aggregation: %d bytes vs simple %d; expected > 2x reduction", aBytes, sBytes)
	}
}

func TestAggMedianVarByIndexMode(t *testing.T) {
	// Key mode must not affect results, only byte sizes.
	extent := grid.NewBox(grid.Coord{0, 0}, []int{10, 10})
	fs, ds, field := setup(t, extent)
	cfg := QueryConfig{DS: ds, NumSplits: 2, NumReducers: 2, KeyMode: keys.VarByIndex}
	job, mapping, err := AggKeyJob(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapreduce.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	kc := &keys.Codec{Rank: 2, Mode: keys.VarByIndex}
	got, err := ReadAggOutput(fs, res, kc, mapping)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "agg index mode", got, Reference(field, extent, 1, Median))
}

func TestPartitionSplitsHappen(t *testing.T) {
	// With a range partitioner over multiple reducers, some aggregate keys
	// must straddle shard boundaries and get split.
	extent := grid.NewBox(grid.Coord{0, 0}, []int{24, 24})
	fs, ds, _ := setup(t, extent)
	job, _, err := AggKeyJob(fs, QueryConfig{DS: ds, NumSplits: 2, NumReducers: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapreduce.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.PartitionKeySplits.Value() == 0 {
		t.Error("expected partition-time key splits with 5 reducers")
	}
}

func TestReaggregateOutputCoalesces(t *testing.T) {
	// The Section IV-B follow-up: key splitting inflates the key count;
	// reduce-side re-aggregation recovers it. Results must be unchanged
	// and output records strictly fewer.
	extent := grid.NewBox(grid.Coord{0, 0}, []int{24, 24})
	fs, ds, field := setup(t, extent)
	want := Reference(field, extent, 1, Median)
	run := func(reagg bool, path string) (CellResults, int64) {
		cfg := QueryConfig{DS: ds, NumSplits: 4, NumReducers: 3, Curve: "rowmajor",
			Reaggregate: reagg, OutputPath: path}
		job, mapping, err := AggKeyJob(fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mapreduce.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		kc := &keys.Codec{Rank: 2, Mode: keys.VarByName}
		got, err := ReadAggOutput(fs, res, kc, mapping)
		if err != nil {
			t.Fatal(err)
		}
		return got, res.Counters.ReduceOutputRecords.Value()
	}
	plainOut, plainRecs := run(false, "/out/noreagg")
	reaggOut, reaggRecs := run(true, "/out/reagg")
	resultsEqual(t, "no reagg", plainOut, want)
	resultsEqual(t, "reagg", reaggOut, want)
	if reaggRecs >= plainRecs {
		t.Errorf("re-aggregation did not shrink output: %d vs %d records", reaggRecs, plainRecs)
	}
}

func TestNetCDFDatasetEndToEnd(t *testing.T) {
	// Store the field as a real NetCDF (CDF-1) file, open it through the
	// header parser, and run the median query against it: results must
	// match the raw-array path exactly.
	extent := grid.NewBox(grid.Coord{0, 0}, []int{18, 18})
	fs := hdfs.New(1<<20, 1, []string{"n0", "n1"})
	field := &workload.Field{Extent: extent, Name: "windspeed1"}
	if err := StoreNetCDF(fs, "/data/w.nc", "windspeed1", extent, field); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenNetCDF(fs, "/data/w.nc", "windspeed1")
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Extent.Equal(extent) {
		t.Fatalf("extent from NetCDF = %v, want %v", ds.Extent, extent)
	}
	if ds.DataOffset <= 0 {
		t.Fatalf("DataOffset = %d", ds.DataOffset)
	}
	job, kc, err := SimpleKeyJob(fs, QueryConfig{DS: ds, NumSplits: 3, NumReducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapreduce.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadSimpleOutput(fs, res, kc)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "netcdf median", got, Reference(field, extent, 1, Median))

	if _, err := OpenNetCDF(fs, "/data/w.nc", "missing"); err == nil {
		t.Error("missing variable must fail")
	}
	if err := StoreNetCDF(fs, "/bad.nc", "v", grid.NewBox(grid.Coord{1, 0}, []int{2, 2}), field); err == nil {
		t.Error("non-zero-origin extent must fail")
	}
}

func Test3DMedianAllFlavors(t *testing.T) {
	// The abstract's subject is a 3-D scalar field; everything is
	// rank-generic, so run the 3x3x3 sliding median end-to-end in all
	// three key flavors on a small cube.
	extent := grid.NewBox(grid.Coord{0, 0, 0}, []int{8, 8, 8})
	fs := hdfs.New(1<<20, 1, []string{"n0", "n1"})
	ds := Dataset{Path: "/data/cube.arr", Var: keys.VarRef{Name: "windspeed1"}, Extent: extent}
	field := &workload.Field{Extent: extent, Name: ds.Var.Name}
	if err := Store(fs, ds, field); err != nil {
		t.Fatal(err)
	}
	want := Reference(field, extent, 1, Median)
	kc := &keys.Codec{Rank: 3, Mode: keys.VarByName}

	sjob, skc, err := SimpleKeyJob(fs, QueryConfig{DS: ds, NumSplits: 3, NumReducers: 2, OutputPath: "/out/3s"})
	if err != nil {
		t.Fatal(err)
	}
	sres, err := mapreduce.Run(sjob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadSimpleOutput(fs, sres, skc)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "3d simple", got, want)

	ajob, mapping, err := AggKeyJob(fs, QueryConfig{DS: ds, NumSplits: 3, NumReducers: 2, Curve: "hilbert", OutputPath: "/out/3a"})
	if err != nil {
		t.Fatal(err)
	}
	ares, err := mapreduce.Run(ajob)
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := ReadAggOutput(fs, ares, kc, mapping)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "3d agg", gotA, want)

	bjob, err := BoxKeyJob(fs, QueryConfig{DS: ds, NumSplits: 3, NumReducers: 2, OutputPath: "/out/3b"})
	if err != nil {
		t.Fatal(err)
	}
	bres, err := mapreduce.Run(bjob)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := ReadBoxOutput(fs, bres, kc)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "3d box", gotB, want)

	// 27 window offsets per cell in 3-D.
	if n := sres.Counters.MapOutputRecords.Value(); n != 8*8*8*27 {
		t.Errorf("3-D simple records = %d, want %d", n, 8*8*8*27)
	}
}

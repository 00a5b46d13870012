package experiments

import (
	"math/rand"
	"sort"

	"scikey/internal/aggregate"
	"scikey/internal/cluster"
	"scikey/internal/codec"
	"scikey/internal/grid"
	"scikey/internal/hdfs"
	"scikey/internal/keys"
	"scikey/internal/mapreduce"
	"scikey/internal/obs"
	"scikey/internal/scihadoop"
	"scikey/internal/serial"
	"scikey/internal/sfc"
	"scikey/internal/sparsekeys"
	"scikey/internal/workload"
)

// E10Row compares one aggregation geometry on the sliding-median workload.
type E10Row struct {
	// Scheme is "curve/<name>" or "boxes" (greedy n-D, the Fig. 5 road not
	// taken) or "simple" (no aggregation).
	Scheme string
	// MapOutputRecords is the aggregate-pair count leaving mappers.
	MapOutputRecords int64
	// KeyBytes is the serialized key volume.
	KeyBytes int64
	// MaterializedBytes is the on-disk intermediate volume.
	MaterializedBytes int64
	// PartitionSplits + OverlapSplits measure splitting work.
	Splits int64
}

// E10AggregationGeometries runs the sliding median under every aggregation
// geometry: simple keys, curve ranges on all four curves, and greedy n-D
// boxes. All runs produce identical query results (covered by unit tests);
// this experiment compares their intermediate-data footprints. When ob is
// non-nil every geometry's job traces into it (one job span per scheme);
// nil disables observability.
func E10AggregationGeometries(side int, ob *obs.Observer) ([]E10Row, error) {
	fs, qcfg, err := scihadoop.MedianSetup(side)
	if err != nil {
		return nil, err
	}
	qcfg.Obs = ob
	var rows []E10Row
	add := func(scheme string, res *mapreduce.Result) {
		c := res.Counters
		rows = append(rows, E10Row{
			Scheme:            scheme,
			MapOutputRecords:  c.MapOutputRecords.Value(),
			KeyBytes:          c.MapOutputKeyBytes.Value(),
			MaterializedBytes: c.MapOutputMaterializedBytes.Value(),
			Splits:            c.PartitionKeySplits.Value() + c.OverlapKeySplits.Value(),
		})
	}

	scfg := qcfg
	scfg.OutputPath = "/out/e10-simple"
	sjob, _, err := scihadoop.SimpleKeyJob(fs, scfg)
	if err != nil {
		return nil, err
	}
	sres, err := mapreduce.Run(sjob)
	if err != nil {
		return nil, err
	}
	add("simple", sres)

	for _, curve := range []string{"zorder", "hilbert", "peano", "rowmajor"} {
		ccfg := qcfg
		ccfg.Curve = curve
		ccfg.OutputPath = "/out/e10-" + curve
		job, _, err := scihadoop.AggKeyJob(fs, ccfg)
		if err != nil {
			return nil, err
		}
		res, err := mapreduce.Run(job)
		if err != nil {
			return nil, err
		}
		add("curve/"+curve, res)
	}

	bcfg := qcfg
	bcfg.OutputPath = "/out/e10-boxes"
	bjob, err := scihadoop.BoxKeyJob(fs, bcfg)
	if err != nil {
		return nil, err
	}
	bres, err := mapreduce.Run(bjob)
	if err != nil {
		return nil, err
	}
	add("boxes", bres)
	return rows, nil
}

// A5Result quantifies the open question at the end of Section IV-B: how
// much does key splitting increase the key count, and does further
// (reduce-side) aggregation win it back?
type A5Result struct {
	// MapperPairs left the aggregation library.
	MapperPairs int64
	// AfterPartitionSplit is the pair count entering the shuffle.
	AfterPartitionSplit int64
	// AfterOverlapSplit is the pair count entering grouping.
	AfterOverlapSplit int64
	// OutputPairsPlain is the reducer output key count without
	// re-aggregation; OutputPairsReagg with it.
	OutputPairsPlain int64
	OutputPairsReagg int64
}

// A5SplitInflation measures the split-driven key-count inflation of the
// sliding-median job and the recovery from reduce-side re-aggregation.
func A5SplitInflation(side int) (A5Result, error) {
	fs, qcfg, err := scihadoop.MedianSetup(side)
	if err != nil {
		return A5Result{}, err
	}
	run := func(reagg bool, path string) (*mapreduce.Result, error) {
		cfg := qcfg
		cfg.Reaggregate = reagg
		cfg.OutputPath = path
		job, _, err := scihadoop.AggKeyJob(fs, cfg)
		if err != nil {
			return nil, err
		}
		return mapreduce.Run(job)
	}
	plain, err := run(false, "/out/a5-plain")
	if err != nil {
		return A5Result{}, err
	}
	reagg, err := run(true, "/out/a5-reagg")
	if err != nil {
		return A5Result{}, err
	}
	c := plain.Counters
	return A5Result{
		MapperPairs:         c.MapOutputRecords.Value(),
		AfterPartitionSplit: c.MapOutputRecords.Value() + c.PartitionKeySplits.Value(),
		AfterOverlapSplit:   c.ReduceInputRecords.Value() + c.OverlapKeySplits.Value(),
		OutputPairsPlain:    c.ReduceOutputRecords.Value(),
		OutputPairsReagg:    reagg.Counters.ReduceOutputRecords.Value(),
	}, nil
}

// A6Row reports map-input locality at one HDFS replication factor.
type A6Row struct {
	Replication int
	// LocalPct is the fraction of map tasks scheduled on a node holding
	// their input block.
	LocalPct float64
	// MapSeconds is the locality-aware modeled map-phase time.
	MapSeconds float64
}

// A6LocalityReplication sweeps the HDFS replication factor and reports how
// map-input locality and the modeled map phase respond on the paper's
// 5-node cluster.
func A6LocalityReplication(side int, replications []int) ([]A6Row, error) {
	var out []A6Row
	for _, rep := range replications {
		extent := grid.NewBox(grid.Coord{0, 0}, []int{side, side})
		nodes := []string{"node0", "node1", "node2", "node3", "node4"}
		fs := hdfs.New(256<<10, rep, nodes)
		ds := scihadoop.Dataset{
			Path:   "/data/windspeed1.arr",
			Var:    keys.VarRef{Name: "windspeed1"},
			Extent: extent,
		}
		field := &workload.Field{Extent: extent, Name: ds.Var.Name}
		if err := scihadoop.Store(fs, ds, field); err != nil {
			return nil, err
		}
		cfg := scihadoop.QueryConfig{DS: ds, NumSplits: 10, NumReducers: 5, OutputPath: "/out/a6"}
		job, _, err := scihadoop.AggKeyJob(fs, cfg)
		if err != nil {
			return nil, err
		}
		res, err := mapreduce.Run(job)
		if err != nil {
			return nil, err
		}
		est := res.EstimateLocality(cluster.Paper(), nodes)
		pct := 0.0
		if est.TotalTasks > 0 {
			pct = 100 * float64(est.LocalTasks) / float64(est.TotalTasks)
		}
		out = append(out, A6Row{Replication: rep, LocalPct: pct, MapSeconds: est.MapSeconds})
	}
	return out, nil
}

// E11Row measures one key-compression scheme on a sparse key set.
type E11Row struct {
	Scheme string
	Bytes  int64
	// Pairs is the aggregate-pair count for the aggregation row (sparse
	// data defeats range coalescing; this shows by how much).
	Pairs int64
}

// E11SparseKeys quantifies Section V's closing observation: the paper's
// schemes target dense keys, and for sparse data Goldstein-style
// frame-of-reference compression is the right tool. A clustered-sparse key
// set (occupancy ~0.1%) is encoded four ways.
func E11SparseKeys(nKeys int, seed int64) ([]E11Row, error) {
	rng := rand.New(rand.NewSource(seed))
	// Clusters of nearby cells at random far-apart centers, visited
	// cluster by cluster — the spatially-correlated arrival order sparse
	// scientific keys actually have. Dedup preserves that order; a global
	// row-major sort would scatter clusters across FOR pages.
	coords := make([]grid.Coord, 0, nKeys)
	seen := make(map[string]bool, nKeys)
	cx, cy := 0, 0
	for i := 0; i < nKeys; i++ {
		if i%256 == 0 {
			cx, cy = rng.Intn(1<<24), rng.Intn(1<<24)
		}
		c := grid.Coord{cx + rng.Intn(64), cy + rng.Intn(64)}
		if !seen[c.String()] {
			seen[c.String()] = true
			coords = append(coords, c)
		}
	}
	// Index order: Goldstein's pages hold keys in index order, and sorting
	// sparse keys along a space-filling curve keeps each spatial cluster
	// contiguous, so FOR pages align with clusters.
	zc := sfc.NewZOrder(2, 24)
	sort.Slice(coords, func(i, j int) bool { return zc.Index(coords[i]) < zc.Index(coords[j]) })

	// (a) raw GridKeys (coordinates only, the Fig. 8 style).
	kc := &keys.Codec{Rank: 2, Mode: keys.VarNone}
	out := serial.NewDataOutput(len(coords) * 8)
	for _, c := range coords {
		kc.EncodeGrid(out, keys.GridKey{Coord: c})
	}
	raw := append([]byte(nil), out.Bytes()...)
	rows := []E11Row{{Scheme: "raw keys", Bytes: int64(len(raw))}}

	// (b) the Section III transform + gzip over the raw key stream.
	tg, err := codec.Get("transform+gzip")
	if err != nil {
		return nil, err
	}
	comp, err := codec.Compress(tg, raw)
	if err != nil {
		return nil, err
	}
	rows = append(rows, E11Row{Scheme: "transform+gzip", Bytes: int64(len(comp))})

	// (c) curve-range aggregation: sparse keys rarely coalesce.
	mapping, err := aggregate.MappingFor("zorder", grid.NewBox(grid.Coord{0, 0}, []int{1 << 25, 1 << 25}))
	if err != nil {
		return nil, err
	}
	var aggPairs, aggBytes int64
	agg := aggregate.New(aggregate.Config{
		Mapping:  mapping,
		ElemSize: 1,
		Emit: func(p keys.AggPair) {
			aggPairs++
			aggBytes += int64(len(kc.AggKeyBytes(p.Key)))
		},
	})
	for _, c := range coords {
		agg.Add(c, []byte{0})
	}
	agg.Close()
	rows = append(rows, E11Row{Scheme: "curve aggregation", Bytes: aggBytes, Pairs: aggPairs})

	// (d) Goldstein-style frame-of-reference pages. Pages smaller than the
	// spatial clusters keep most pages inside one cluster (a page that
	// straddles two far-apart clusters pays full-width offsets).
	s := sparsekeys.Measure(coords, 64)
	rows = append(rows, E11Row{Scheme: "FOR pages", Bytes: int64(s.EncodedBytes)})
	return rows, nil
}

// A8Row reports the on-disk sort-phase amplification of one strategy.
type A8Row struct {
	Scheme string
	// MaterializedBytes is the final map-output volume.
	MaterializedBytes int64
	// DiskBytes is all modeled disk traffic (input, spills, merge passes,
	// shuffle staging, output).
	DiskBytes int64
	// Amplification is DiskBytes / MaterializedBytes: how many times each
	// intermediate byte crosses a disk.
	Amplification float64
}

// A8SortPhases quantifies the paper's second-order claim — "reducing
// intermediate data can ... speed up a write/read cycle on the Mapper hard
// drives, reduce network transfer sizes, and possibly several read/write
// cycles on the Reducer hard drives" (Section II-A). With a small spill
// buffer and merge factor, each strategy's intermediate bytes are
// multiplied by multi-pass merges; aggregation shrinks both the bytes and
// the number of passes.
func A8SortPhases(side int) ([]A8Row, error) {
	fs, qcfg, err := scihadoop.MedianSetup(side)
	if err != nil {
		return nil, err
	}
	const (
		spill  = 128 << 10
		factor = 4
	)
	run := func(scheme string, job *mapreduce.Job) (A8Row, error) {
		job.SpillBufferBytes = spill
		job.MergeFactor = factor
		res, err := mapreduce.Run(job)
		if err != nil {
			return A8Row{}, err
		}
		var disk int64
		for _, m := range res.MapTasks {
			disk += m.DiskBytes
		}
		for _, r := range res.ReduceTasks {
			disk += r.DiskBytes
		}
		mat := res.Counters.MapOutputMaterializedBytes.Value()
		row := A8Row{Scheme: scheme, MaterializedBytes: mat, DiskBytes: disk}
		if mat > 0 {
			row.Amplification = float64(disk) / float64(mat)
		}
		return row, nil
	}
	scfg := qcfg
	scfg.OutputPath = "/out/a8-simple"
	sjob, _, err := scihadoop.SimpleKeyJob(fs, scfg)
	if err != nil {
		return nil, err
	}
	srow, err := run("simple", sjob)
	if err != nil {
		return nil, err
	}
	acfg := qcfg
	acfg.OutputPath = "/out/a8-agg"
	ajob, _, err := scihadoop.AggKeyJob(fs, acfg)
	if err != nil {
		return nil, err
	}
	arow, err := run("aggregation", ajob)
	if err != nil {
		return nil, err
	}
	return []A8Row{srow, arow}, nil
}

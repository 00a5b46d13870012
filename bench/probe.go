package main

import (
	"fmt"
	"sort"
	"time"

	"scikey/internal/aggregate"
	"scikey/internal/codec"
	"scikey/internal/grid"
	"scikey/internal/hdfs"
	"scikey/internal/keys"
	"scikey/internal/predictor"
	"scikey/internal/scihadoop"
)

// Kernel probes run one layer's hot call alone, on inputs taken from the
// workload itself, after the traced queries. They give a layer's speed where
// the ledger gives its share; each is a few tens of milliseconds.

// probeRounds is how often each probe repeats; the median is reported.
const probeRounds = 3

// hdfsProbeBytes is the blob the simulated-HDFS probe writes and reads back.
const hdfsProbeBytes = 8 << 20

// timeRounds returns the median seconds fn takes.
func timeRounds(fn func()) float64 {
	var v []float64
	for i := 0; i < probeRounds; i++ {
		t0 := time.Now()
		fn()
		v = append(v, time.Since(t0).Seconds())
	}
	return median(v)
}

// perSecond is n units per second over sec seconds, in millions.
func perSecond(n int, sec float64) float64 {
	if sec <= 0 {
		return 0
	}
	return float64(n) / 1e6 / sec
}

func (b *bench) probes() map[string]float64 {
	m := make(map[string]float64)

	// The simulated HDFS under every dataset, output file and cache blob.
	blob := make([]byte, hdfsProbeBytes)
	fs := hdfs.New(64<<20, 3, []string{"node0", "node1", "node2"})
	round := 0
	m["hdfs.write_mbps"] = perSecond(len(blob), timeRounds(func() {
		round++
		_ = fs.WriteFile(fmt.Sprintf("/probe/%d", round), blob) // an in-memory write of a fresh path cannot fail
	}))
	m["hdfs.read_mbps"] = perSecond(len(blob), timeRounds(func() {
		_, _ = fs.ReadAll("/probe/1")
	}))

	// Predictor and zlib on the raw segment stream the traced query's first
	// codec writers saw: IFile-framed (key, value) records of map task 0.
	if raw := b.capture; len(raw) > 0 {
		var fwd []byte
		m["predictor.forward_mbps"] = perSecond(len(raw), timeRounds(func() {
			fwd = predictor.NewTransformer(predictor.Config{}).Forward(fwd[:0], raw)
		}))
		var back []byte
		m["predictor.inverse_mbps"] = perSecond(len(raw), timeRounds(func() {
			back = predictor.NewTransformer(predictor.Config{}).Inverse(back[:0], fwd)
		}))
		m["codec.zlib_compress_mbps"] = perSecond(len(fwd), timeRounds(func() {
			_, _ = codec.Compress(codec.Zlib, fwd) // writes to a bytes.Buffer
		}))
	}

	// Aggregation, curve indexing and overlap splitting on split 0's cells,
	// replayed the way the aggregate-key mapper feeds them.
	if b.w.spec.Strategy == "aggregation" {
		extent := grid.NewBox(grid.Coord{0, 0}, []int{b.side, b.side})
		mapping, err := aggregate.MappingFor(b.w.spec.Curve, extent.Expand(b.w.spec.Radius))
		if err != nil {
			return m
		}
		var targets []grid.Coord
		box := grid.Partition(extent, b.w.spec.Splits)[0]
		grid.ForEach(box, func(c grid.Coord) {
			for dx := -b.w.spec.Radius; dx <= b.w.spec.Radius; dx++ {
				for dy := -b.w.spec.Radius; dy <= b.w.spec.Radius; dy++ {
					targets = append(targets, grid.Coord{c[0] + dx, c[1] + dy})
				}
			}
		})
		var pairs []keys.AggPair
		val := make([]byte, scihadoop.ElemSize)
		m["aggregate.add_mcells_per_s"] = perSecond(len(targets), timeRounds(func() {
			pairs = pairs[:0]
			agg := aggregate.New(aggregate.Config{
				Mapping:  mapping,
				ElemSize: scihadoop.ElemSize,
				Emit:     func(p keys.AggPair) { pairs = append(pairs, p) },
			})
			for _, c := range targets {
				agg.Add(c, val)
			}
			agg.Close()
		}))
		m["aggregate.ranges_per_kcell"] = 1000 * float64(len(pairs)) / float64(len(targets))
		var sink uint64
		m["sfc.index_mcells_per_s"] = perSecond(len(targets), timeRounds(func() {
			for _, c := range targets {
				sink += mapping.Index(c)
			}
		}))
		_ = sink
		sort.SliceStable(pairs, func(i, j int) bool { return keys.CompareAgg(pairs[i].Key, pairs[j].Key) < 0 })
		m["keys.split_overlaps_s"] = timeRounds(func() {
			keys.SplitOverlaps(pairs, scihadoop.ElemSize)
		})
	}
	return m
}

package mapreduce

import (
	"fmt"
	"runtime"
	"testing"

	"scikey/internal/codec"
)

// TestBlockCodecDifferential proves the parallel block codec is invisible to
// the engine: for every pipeline width the job's output files and payload
// counters are byte-identical to the materialized test oracle — across
// shuffle transports and under fault schedules that force retries, segment
// corruption, and codec errors. The pipeline's width is GOMAXPROCS and the
// framing is position-determined, so widths 1, 2, and 4 must all produce
// the same intermediate bytes; any divergence is an ordering or reassembly
// bug in the pipeline, not data-dependent flakiness.
func TestBlockCodecDifferential(t *testing.T) {
	blockCodec := func() codec.Codec {
		blk := codec.NewBlock(codec.NewTransform(codec.Zlib))
		// Small blocks force many frames through the pipeline even on
		// word-count-sized segments.
		blk.BlockBytes = 1 << 10
		return blk
	}
	variants := []struct {
		name     string
		shuffle  *ShuffleConfig
		spec     string
		policy   RetryPolicy
		parallel int
	}{
		{name: "mem"},
		{name: "tcp", parallel: 2,
			shuffle: &ShuffleConfig{Mode: ShuffleTCP, Nodes: 2, FetchAttempts: 4}},
		{name: "mem-faults",
			spec:   "seed=9;map:1:error@0;segment:0.1:corrupt@0;codec:2:error@0",
			policy: RetryPolicy{MaxAttempts: 3}},
		{name: "net-faults", parallel: 2,
			shuffle: &ShuffleConfig{Mode: ShuffleTCP, Nodes: 2, FetchAttempts: 4},
			spec:    "seed=3;net:1:cut@0;net:0.1:corrupt@0",
			policy:  RetryPolicy{MaxAttempts: 3}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			ref := diffCase{name: v.name, codec: blockCodec(), shuffle: v.shuffle,
				spec: v.spec, policy: v.policy, parallel: v.parallel}
			refOuts, refCounters := refDiff(t, ref)
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					prev := runtime.GOMAXPROCS(workers)
					t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
					dc := ref
					dc.codec = blockCodec()
					outs, counters := runDiff(t, dc)
					if len(outs) != len(refOuts) {
						t.Fatalf("partition counts differ: reference %d, workers=%d %d",
							len(refOuts), workers, len(outs))
					}
					for i := range refOuts {
						if outs[i] != refOuts[i] {
							t.Errorf("partition %d output bytes differ (reference %d B, workers=%d %d B)",
								i, len(refOuts[i]), workers, len(outs[i]))
						}
					}
					for name, want := range refCounters {
						if got := counters[name]; got != want {
							t.Errorf("counter %s: workers=%d %d, reference %d", name, workers, got, want)
						}
					}
				})
			}
		})
	}
}

package scihadoop

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"scikey/internal/grid"
	"scikey/internal/mapreduce"
)

// TestMaxSpillCombinePinned pins the simple-key max query — the one query
// that folds at spill time — to the bytes and counters the Reducer-shaped
// map-side combiner produced before it became a Monoid (captured at commit
// c8fa7cb): side 32, a 4 KiB spill buffer (about six spills plus map-side
// merge passes per task), with and without in-node combining. Materialized
// bytes are equal either way: node-level folding happens after the map
// output is materialized, and spill-level folding is on in both runs. The
// in-node combine runs in one node group, the count these bytes were
// captured at (the default count is shufflenet.DefaultNodes).
func TestMaxSpillCombinePinned(t *testing.T) {
	extent := grid.NewBox(grid.Coord{0, 0}, []int{32, 32})
	fs, ds, _ := setup(t, extent)
	wantSha := []string{
		"8440e21dd198689be8df607d0cd4d01eb0c4b4196cdc69beb39eeeed153d5ac1",
		"5f97f72172df139809350cc1f0cd55f1005b9ff74a427bfdcec63aa2460cbaae",
		"76d58f6ba176309a7fc5fc92f4378c3d59a5c2843af5b584a469bac4ca32c01c",
		"f51b4c460a13215e59aacfe1c05fded3aab33761690605643e8a2ca0a25c0a88",
		"6b61fe5af6d1e78678c44d4921676ec63af16091e082ac72015c7c8fc107e3e7",
	}
	wantShuffle := map[bool]int64{false: 87700, true: 28930}
	for _, combine := range []bool{false, true} {
		t.Run(fmt.Sprintf("combine=%v", combine), func(t *testing.T) {
			cfg := QueryConfig{DS: ds, Op: Max, Combine: combine, OutputPath: fmt.Sprintf("/out/pinned-%v", combine)}
			if combine {
				cfg.CombineNodes = 1
			}
			job, _, err := SimpleKeyJob(fs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			job.SpillBufferBytes = 4096
			res, err := mapreduce.Run(job)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range res.OutputPaths {
				data, err := fs.ReadAll(p)
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != wantSha[i] {
					t.Errorf("partition %d output sha = %s, want %s", i, got, wantSha[i])
				}
			}
			c := res.Counters
			got := map[string]int64{
				"MapOutputMaterializedBytes": c.MapOutputMaterializedBytes.Value(),
				"SpilledRecords":             c.SpilledRecords.Value(),
				"CombineInputRecords":        c.CombineInputRecords.Value(),
				"CombineOutputRecords":       c.CombineOutputRecords.Value(),
				"ReduceShuffleBytes":         c.ReduceShuffleBytes.Value(),
			}
			want := map[string]int64{
				"MapOutputMaterializedBytes": 87700,
				"SpilledRecords":             6992,
				"CombineInputRecords":        9216,
				"CombineOutputRecords":       3496,
				"ReduceShuffleBytes":         wantShuffle[combine],
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("counters = %v, want %v", got, want)
			}
		})
	}
}

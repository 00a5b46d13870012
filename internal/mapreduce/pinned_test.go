package mapreduce

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"scikey/internal/codec"
)

// TestSpillCombinePinned pins the spill-level combiner's bytes and counters
// to the values the Reducer-shaped combiner produced before it became a
// Monoid (captured at commit c8fa7cb): the word-count job with a sum
// combiner and a spill buffer small enough for many spills and map-side
// merge passes per task. No benchmark workload folds at spill time, so this
// is where the contract swap's byte-exactness is held.
func TestSpillCombinePinned(t *testing.T) {
	docs := []string{
		strings.Repeat("alpha beta gamma delta alpha beta alpha ", 60),
		strings.Repeat("beta gamma epsilon zeta alpha ", 80),
		strings.Repeat("the quick brown fox jumps over the lazy dog ", 40),
	}
	fs := testFS()
	job := wordCountJob(fs, docs, 2, true)
	job.SpillBufferBytes = 512
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	wantSha := []string{
		"fb63b42f45654692eedc2c5f76605f9499201456223174b20484b1bc3ebcb3c1",
		"c2b9115335c3f1fb439ed01deabee77c1d354ecc8693ba8ade019a643e81a0e3",
	}
	for i, out := range readRawOutputs(t, fs, res.OutputPaths) {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != wantSha[i] {
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
		"MapOutputMaterializedBytes": 1256,
		"SpilledRecords":             232,
		"CombineInputRecords":        1180,
		"CombineOutputRecords":       116,
		"ReduceShuffleBytes":         1256,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("counters = %v, want %v", got, want)
	}
}

// TestCodedSpillsPinned pins a coded multi-spill job against the commit
// before spills went raw (50030fa, where every spill and every merge pass ran
// the codec): word count under transform+zlib with a 512 B spill buffer, six
// to eight spills per task. The published bytes — and so both byte counters
// and the output — are the encoding of the same merged record stream and
// must not move.
//
// SpilledRecords holds at the default merge factor, where one pass merges
// every spill. At MergeFactor 3 it reads 3742 where the parent read 3746, and
// that move is the rule, not a regression: a merge pass takes the smallest
// stored segments first, the parent ranked spills by their coded size, and
// raw spills rank by plaintext size — as the codec.None job always did, whose
// 3742 this now equals under every codec (TestConfigLattice). The pass
// that re-encodes a lone raw spill counts as the merge pass it is; no
// partition here has one.
func TestCodedSpillsPinned(t *testing.T) {
	wantSha := []string{
		"fb63b42f45654692eedc2c5f76605f9499201456223174b20484b1bc3ebcb3c1",
		"c2b9115335c3f1fb439ed01deabee77c1d354ecc8693ba8ade019a643e81a0e3",
	}
	for _, tc := range []struct {
		mergeFactor    int
		spilledRecords int64
	}{
		{mergeFactor: 0, spilledRecords: 2360},
		{mergeFactor: 3, spilledRecords: 3742},
	} {
		t.Run(fmt.Sprintf("factor=%d", tc.mergeFactor), func(t *testing.T) {
			fs := testFS()
			job := wordCountJob(fs, codeOnceDocs, 2, false)
			job.SpillBufferBytes = 512
			job.MergeFactor = tc.mergeFactor
			job.MapOutputCodec = codec.NewTransform(codec.Zlib)
			res, err := Run(job)
			if err != nil {
				t.Fatal(err)
			}
			for i, out := range readRawOutputs(t, fs, res.OutputPaths) {
				if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != wantSha[i] {
					t.Errorf("partition %d output sha = %s, want %s", i, got, wantSha[i])
				}
			}
			c := res.Counters
			got := map[string]int64{
				"MapOutputMaterializedBytes": c.MapOutputMaterializedBytes.Value(),
				"ReduceShuffleBytes":         c.ReduceShuffleBytes.Value(),
				"SpilledRecords":             c.SpilledRecords.Value(),
			}
			want := map[string]int64{
				"MapOutputMaterializedBytes": 731,
				"ReduceShuffleBytes":         731,
				"SpilledRecords":             tc.spilledRecords,
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("counters = %v, want %v", got, want)
			}
		})
	}
}

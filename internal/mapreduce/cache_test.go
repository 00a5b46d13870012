package mapreduce

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"scikey/internal/cluster"
	"scikey/internal/hdfs"
	"scikey/internal/obs"
)

// memCache is the reference MapOutputCache: an in-memory map with Clone on
// both sides so cached snapshots never alias job memory.
type memCache struct {
	mu   sync.Mutex
	m    map[string]*MapPhaseSnapshot
	hits int
	puts int
}

func (c *memCache) Get(key string) (*MapPhaseSnapshot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.hits++
	return s.Clone(), true
}

func (c *memCache) Put(key string, snap *MapPhaseSnapshot) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]*MapPhaseSnapshot)
	}
	c.m[key] = snap.Clone()
	c.puts++
	return nil
}

// Clone deep-copies the snapshot, including segment bytes, so cached state
// never aliases live job memory.
func (s *MapPhaseSnapshot) Clone() *MapPhaseSnapshot {
	c := &MapPhaseSnapshot{
		Segments:    make([][]SegmentSnapshot, len(s.Segments)),
		Attempts:    append([]int(nil), s.Attempts...),
		Footprints:  append([]cluster.Task(nil), s.Footprints...),
		InputBytes:  append([]int64(nil), s.InputBytes...),
		Hosts:       make([][]string, len(s.Hosts)),
		WallSeconds: append([]float64(nil), s.WallSeconds...),
		Counters:    append([]int64(nil), s.Counters...),
		NumReducers: s.NumReducers,
	}
	for i, row := range s.Segments {
		c.Segments[i] = make([]SegmentSnapshot, len(row))
		for p, seg := range row {
			c.Segments[i][p] = SegmentSnapshot{
				Data:    append([]byte(nil), seg.Data...),
				Records: seg.Records,
				Src:     seg.Src,
				Attempt: seg.Attempt,
			}
		}
	}
	for i, h := range s.Hosts {
		c.Hosts[i] = append([]string(nil), h...)
	}
	return c
}

var cacheDocs = []string{
	"the quick brown fox jumps over the lazy dog",
	"pack my box with five dozen liquor jugs",
	"the five boxing wizards jump quickly over the dog",
	"sphinx of black quartz judge my vow the fox",
	"how vexingly quick daft zebras jump over jugs",
	"the dog and the fox box quickly with the wizards",
}

// rawOutputs reads each output file's exact bytes.
func rawOutputs(t *testing.T, fs *hdfs.FileSystem, paths []string) [][]byte {
	t.Helper()
	out := make([][]byte, len(paths))
	for i, p := range paths {
		data, err := fs.ReadAll(p)
		if err != nil {
			t.Fatalf("read output %s: %v", p, err)
		}
		out[i] = data
	}
	return out
}

// payloadSnapshot extracts the counters that must be byte-identical between
// a cold run and a cache-hit run: everything except the scheduling and
// shuffle-transport rows, which legitimately differ when no map attempts run.
func payloadSnapshot(c *Counters) map[string]int64 {
	return map[string]int64{
		"MapInputRecords":            c.MapInputRecords.Value(),
		"MapInputBytes":              c.MapInputBytes.Value(),
		"MapOutputRecords":           c.MapOutputRecords.Value(),
		"MapOutputBytes":             c.MapOutputBytes.Value(),
		"MapOutputKeyBytes":          c.MapOutputKeyBytes.Value(),
		"MapOutputValueBytes":        c.MapOutputValueBytes.Value(),
		"MapOutputMaterializedBytes": c.MapOutputMaterializedBytes.Value(),
		"CombineInputRecords":        c.CombineInputRecords.Value(),
		"CombineOutputRecords":       c.CombineOutputRecords.Value(),
		"SpilledRecords":             c.SpilledRecords.Value(),
		"ReduceShuffleBytes":         c.ReduceShuffleBytes.Value(),
		"ReduceInputGroups":          c.ReduceInputGroups.Value(),
		"ReduceInputRecords":         c.ReduceInputRecords.Value(),
		"ReduceOutputRecords":        c.ReduceOutputRecords.Value(),
		"ReduceOutputBytes":          c.ReduceOutputBytes.Value(),
		"CombineMergedRecords":       c.CombineMergedRecords.Value(),
		"CombineEmittedRecords":      c.CombineEmittedRecords.Value(),
		"CombineSavedBytes":          c.CombineSavedBytes.Value(),
	}
}

// mapAttemptCount reads the map-phase attempt histogram — the observable
// proof that a cache hit scheduled zero map attempts.
func mapAttemptCount(o *obs.Observer) int64 {
	return o.R().Histogram("scikey_attempt_seconds",
		"Duration of task attempts by phase", "seconds", nil, obs.L("phase", "map")).Count()
}

// TestMapCacheDifferential: a second run under the same cache key must skip
// the map phase (zero map attempts) and produce output bytes and payload
// counters identical to the cold run — across the plain, map-side-combiner,
// in-node-combine, and networked-shuffle configurations.
func TestMapCacheDifferential(t *testing.T) {
	cases := []struct {
		name string
		mut  func(job *Job)
	}{
		{"plain", func(job *Job) {}},
		{"map_side_combiner", func(job *Job) { job.MapCombiner = SumInt32 }},
		{"in_node_combine", func(job *Job) {
			job.Combine = &CombineConfig{Combiner: SumInt32, Nodes: 2}
		}},
		{"net_shuffle", func(job *Job) {
			job.Shuffle = &ShuffleConfig{Mode: ShuffleTCP, Nodes: 3}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cache := &memCache{}
			run := func() (*Result, [][]byte, *obs.Observer) {
				fs := testFS()
				job := wordCountJob(fs, cacheDocs, 3, false)
				tc.mut(job)
				job.MapCache = cache
				job.CacheKey = "wordcount/" + tc.name
				o := obs.New()
				job.Obs = o
				res, err := Run(job)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				return res, rawOutputs(t, fs, res.OutputPaths), o
			}

			cold, coldOut, coldObs := run()
			if cold.MapPhaseCached {
				t.Fatal("cold run reported MapPhaseCached")
			}
			if cache.puts != 1 {
				t.Fatalf("cold run made %d cache puts; want 1", cache.puts)
			}
			if n := mapAttemptCount(coldObs); n != int64(len(cacheDocs)) {
				t.Fatalf("cold run recorded %d map attempts; want %d", n, len(cacheDocs))
			}

			warm, warmOut, warmObs := run()
			if !warm.MapPhaseCached {
				t.Fatal("warm run did not report MapPhaseCached")
			}
			if cache.hits != 1 {
				t.Fatalf("cache hits = %d after warm run; want 1", cache.hits)
			}
			if cache.puts != 1 {
				t.Fatalf("warm run re-put into the cache (puts = %d)", cache.puts)
			}
			if n := mapAttemptCount(warmObs); n != 0 {
				t.Fatalf("warm run recorded %d map attempts; want 0", n)
			}

			if len(coldOut) != len(warmOut) {
				t.Fatalf("output file count differs: cold %d warm %d", len(coldOut), len(warmOut))
			}
			for i := range coldOut {
				if !bytes.Equal(coldOut[i], warmOut[i]) {
					t.Fatalf("output file %d differs between cold and warm run", i)
				}
			}
			cp, wp := payloadSnapshot(cold.Counters), payloadSnapshot(warm.Counters)
			for k, v := range cp {
				if wp[k] != v {
					t.Errorf("counter %s: cold %d warm %d", k, v, wp[k])
				}
			}

			// The cost-model inputs replay too: identical footprints mean
			// identical estimates, so admission control prices hot and cold
			// queries off the same samples.
			if len(warm.MapTasks) != len(cold.MapTasks) {
				t.Fatalf("MapTasks length differs: cold %d warm %d", len(cold.MapTasks), len(warm.MapTasks))
			}
			for i := range cold.MapTasks {
				if cold.MapTasks[i] != warm.MapTasks[i] {
					t.Errorf("MapTasks[%d] differs: cold %+v warm %+v", i, cold.MapTasks[i], warm.MapTasks[i])
				}
			}
		})
	}
}

// TestMapCacheShapeMismatchIsMiss: a snapshot stored under a colliding key
// for a different job shape must be ignored, not crash the run.
func TestMapCacheShapeMismatchIsMiss(t *testing.T) {
	cache := &memCache{}
	fs := testFS()
	job := wordCountJob(fs, cacheDocs, 3, false)
	job.MapCache, job.CacheKey = cache, "shared-key"
	if _, err := Run(job); err != nil {
		t.Fatalf("cold run: %v", err)
	}

	// Same key, fewer reducers: shape mismatch → miss → fresh run + re-put.
	fs2 := testFS()
	job2 := wordCountJob(fs2, cacheDocs, 2, false)
	job2.MapCache, job2.CacheKey = cache, "shared-key"
	res, err := Run(job2)
	if err != nil {
		t.Fatalf("mismatched run: %v", err)
	}
	if res.MapPhaseCached {
		t.Fatal("shape-mismatched snapshot was restored")
	}
	if cache.puts != 2 {
		t.Fatalf("cache puts = %d; want 2 (mismatch overwrites)", cache.puts)
	}
}

// TestMapCacheFaultsRejected: caching plus fault injection must fail
// validation rather than cache a faulty run's output.
func TestMapCacheFaultsRejected(t *testing.T) {
	job := wordCountJob(testFS(), cacheDocs, 2, false)
	job.MapCache, job.CacheKey = &memCache{}, "k"
	job.Faults = mustInjector(t, "map:0:error@0")
	_, err := Run(job)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("Run with MapCache+Faults = %v; want mutual-exclusion error", err)
	}
}

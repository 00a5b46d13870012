package mapreduce

import (
	"maps"
	"slices"
	"sync"
	"testing"

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
		Attempts:    slices.Clone(s.Attempts),
		Tasks:       make([]RemoteResult, len(s.Tasks)),
		Groups:      slices.Clone(s.Groups),
		NumReducers: s.NumReducers,
	}
	for i, t := range s.Tasks {
		parts := make([][]byte, len(t.Parts))
		for p, data := range t.Parts {
			parts[p] = slices.Clone(data)
		}
		t.Parts, t.Counters, t.Hosts = parts, slices.Clone(t.Counters), slices.Clone(t.Hosts)
		c.Tasks[i] = t
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

// mapAttemptCount reads the map-phase attempt histogram — the observable
// proof that a cache hit scheduled zero map attempts.
func mapAttemptCount(o *obs.Observer) int64 {
	return o.R().Histogram("scikey_attempt_seconds",
		"Duration of task attempts by phase", "seconds", nil, obs.L("phase", "map")).Count()
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

// TestCacheHitRepairsCorruptRestore: a faulty cold run can cache a
// committed attempt with a corrupt segment. Map 0's attempt 0 corrupts its
// partition 1; reducer 1 finds it after reducer 0 has read attempt 0's
// clean partition 0, and the re-executed attempt 1 corrupts its own
// partition 0, which no reducer of the cold run reads again. A clean run of
// the key restores that row and reducer 0 finds it corrupt: the run drops
// the restore, runs its map phase as a miss, matches the reference and
// stores its own snapshot over the bad one, its attempts numbered after the
// restored ones, which the next run restores without a map attempt.
func TestCacheHitRepairsCorruptRestore(t *testing.T) {
	cache := &memCache{}
	refOuts, refCounters := referenceRun(t, wordCountJob(testFS(), cacheDocs, 2, false))
	for i, tc := range []struct {
		faults   string
		cached   bool
		puts     int
		attempts int64 // map attempts the run schedules
	}{
		{"seed=1;segment:0.1:corrupt@0;segment:0.0:corrupt@1", false, 1, int64(len(cacheDocs)) + 1},
		{"", false, 2, int64(len(cacheDocs))},
		{"", true, 2, 0},
	} {
		fs := testFS()
		job := wordCountJob(fs, cacheDocs, 2, false)
		job.MapCache, job.CacheKey = cache, "repair"
		job.Retry = RetryPolicy{MaxAttempts: 4}
		job.Obs = obs.New()
		if tc.faults != "" {
			job.Faults = mustInjector(t, tc.faults)
		} else {
			// Reducer 1 stays in flight while reducer 0's repair runs the
			// map phase.
			job.Parallelism = 3
		}
		res, err := Run(job)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if outs := readRawOutputs(t, fs, res.OutputPaths); !slices.Equal(outs, refOuts) {
			t.Errorf("run %d: output bytes differ from the reference", i)
		}
		if got, want := payload(res.Counters), payload(refCounters); !maps.Equal(got, want) {
			t.Errorf("run %d: payload counters %v, want %v", i, got, want)
		}
		if res.MapPhaseCached != tc.cached || cache.puts != tc.puts || mapAttemptCount(job.Obs) != tc.attempts {
			t.Errorf("run %d: MapPhaseCached %v after %d puts, %d map attempts; want %v, %d puts, %d map attempts",
				i, res.MapPhaseCached, cache.puts, mapAttemptCount(job.Obs), tc.cached, tc.puts, tc.attempts)
		}
		// The cold run cached map 0's re-executed attempt 1; the repair
		// numbers every attempt after the restored one.
		want := []int{1, 0, 0, 0, 0, 0}
		if i > 0 {
			want = []int{2, 1, 1, 1, 1, 1}
		}
		if got := cache.m["repair"].Attempts; !slices.Equal(got, want) {
			t.Errorf("run %d: cached attempts %v, want %v", i, got, want)
		}
	}
}

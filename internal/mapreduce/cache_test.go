package mapreduce

import (
	"strings"
	"sync"
	"testing"

	"scikey/internal/cluster"
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

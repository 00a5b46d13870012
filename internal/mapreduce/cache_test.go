package mapreduce

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

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

// keepCache is a MapOutputCache that keeps the snapshot Put hands it as it
// is, uncloned, and hands that same snapshot to every Get: its parts stay
// the cold run's published segments for as long as the cache holds them.
type keepCache struct{ snap *MapPhaseSnapshot }

func (c *keepCache) Get(string) (*MapPhaseSnapshot, bool) { return c.snap, c.snap != nil }

func (c *keepCache) Put(_ string, snap *MapPhaseSnapshot) error {
	c.snap = snap
	return nil
}

// runPhases runs job's map, combine and reduce phases as Run does and
// returns the run before assemble, with its published rows in place.
func runPhases(t *testing.T, job *Job) *jobRun {
	t.Helper()
	if err := job.validate(); err != nil {
		t.Fatal(err)
	}
	r, err := newJobRun(job)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.close)
	for _, step := range []func() error{r.mapPhase, r.combinePhase, r.reducePhase} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestSnapshotAliasesPublishedSegments: a cold run's snapshot hands the
// cache its published segments, not copies — each part shares its
// segment's backing array, with its capacity capped at its length. That is
// safe only while published segments never go back to bufpool and are
// never written after finalize, so a cache that keeps the parts uncloned
// must still hold the cold run's bytes after another job has churned the
// pool, and a warm run from them must restore, without a map attempt, the
// reference's output bytes and the cold run's payload counters.
func TestSnapshotAliasesPublishedSegments(t *testing.T) {
	churnDocs := make([]string, len(cacheDocs))
	for i, d := range cacheDocs {
		churnDocs[i] = strings.ToUpper(d) + " " + d
	}
	for _, nodes := range []int{0, 2} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			build := func(fs *hdfs.FileSystem) *Job {
				job := wordCountJob(fs, cacheDocs, 3, false)
				job.SpillBufferBytes, job.MergeFactor = 128, 2
				if nodes > 0 {
					job.Combine = &CombineConfig{Combiner: SumInt32, Nodes: nodes}
				}
				return job
			}
			refOuts, _ := referenceRun(t, build(testFS()))
			cache := &keepCache{}
			cold := build(testFS())
			cold.MapCache, cold.CacheKey = cache, "alias"
			r := runPhases(t, cold)
			rows := r.pub.snapshot()
			coldRes, err := r.assemble()
			if err != nil {
				t.Fatal(err)
			}
			if cache.snap == nil {
				t.Fatal("the cold run stored no snapshot")
			}
			for m, row := range rows {
				for p, seg := range row {
					part := cache.snap.Tasks[m].Parts[p]
					if len(part) != len(seg.data) || cap(part) != len(part) || unsafe.SliceData(part) != unsafe.SliceData(seg.data) {
						t.Errorf("map %d part %d: len %d cap %d at %p; want len = cap = %d at the published segment's %p",
							m, p, len(part), cap(part), unsafe.SliceData(part), len(seg.data), unsafe.SliceData(seg.data))
					}
				}
			}
			kept := cache.snap.Clone()
			unchanged := func(when string) {
				t.Helper()
				for m, task := range cache.snap.Tasks {
					for p, part := range task.Parts {
						if !bytes.Equal(part, kept.Tasks[m].Parts[p]) {
							t.Fatalf("%s: map %d part %d was written after the cold run stored it", when, m, p)
						}
					}
				}
			}

			churn := wordCountJob(testFS(), churnDocs, 4, false)
			churn.SpillBufferBytes, churn.MergeFactor = 128, 2
			if _, err := Run(churn); err != nil {
				t.Fatalf("churn run: %v", err)
			}
			unchanged("after a job churned bufpool")

			fs := testFS()
			warm := build(fs)
			warm.MapCache, warm.CacheKey = cache, "alias"
			res, err := Run(warm)
			if err != nil {
				t.Fatalf("warm run: %v", err)
			}
			if !res.MapPhaseCached {
				t.Error("the warm run did not restore the kept snapshot")
			}
			if outs := readRawOutputs(t, fs, res.OutputPaths); !slices.Equal(outs, refOuts) {
				t.Error("warm output bytes differ from the reference")
			}
			if got, want := payload(res.Counters), payload(coldRes.Counters); !maps.Equal(got, want) {
				t.Errorf("warm payload counters %v, want the cold run's %v", got, want)
			}
			unchanged("after the warm run read it")
		})
	}
}

// TestSnapshotAllocatesNoSegmentBytes holds snapshotMapPhase to what it
// allocates per map task and partition — the snapshot's slices and each
// task's counter snapshot — far below the map output it captures, so a
// copy of the segment bytes cannot come back unnoticed.
func TestSnapshotAllocatesNoSegmentBytes(t *testing.T) {
	docs := make([]string, 8)
	for i := range docs {
		var b strings.Builder
		for w := 0; w < 2000; w++ {
			fmt.Fprintf(&b, "word%d-%d ", i, w)
		}
		docs[i] = b.String()
	}
	job := wordCountJob(testFS(), docs, 4, false)
	r := runPhases(t, job)
	var materialized int64
	for _, task := range r.tasks {
		materialized += task.counters().MapOutputMaterializedBytes.Value()
	}
	perTask := 512 + 64*job.NumReducers + 8*len(counterTable)
	budget := uint64(len(r.tasks) * perTask)
	if int64(budget)*20 > materialized {
		t.Fatalf("%d materialized bytes cannot tell a copy from the %d-byte budget", materialized, budget)
	}
	alloc := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, err := snapshotMapPhase(job, r.tasks, r.pub, r.nb)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(snap)
		alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
	}
	if alloc > budget {
		t.Errorf("snapshotMapPhase allocated %d bytes over %d tasks × %d partitions, budget %d (map output %d bytes)",
			alloc, len(r.tasks), job.NumReducers, budget, materialized)
	}
	t.Logf("snapshotMapPhase: %d bytes allocated, budget %d, map output %d bytes", alloc, budget, materialized)
}

// TestCacheSpans: a job with a map-output cache opens its cache round trips
// as phase spans under the job span — cache.get with the hit or miss it
// found, and on a miss cache.put around the snapshot and Put — so the fill
// a cold query runs after its last reducer shows in the trace.
func TestCacheSpans(t *testing.T) {
	cache := &memCache{}
	for _, want := range []struct {
		get  string
		puts int
	}{{"miss", 1}, {"hit", 0}} {
		job := wordCountJob(testFS(), cacheDocs, 2, false)
		job.MapCache, job.CacheKey = cache, "spans"
		job.Obs = obs.New()
		if _, err := Run(job); err != nil {
			t.Fatal(err)
		}
		var jobID obs.SpanID
		byName := map[string][]obs.Event{}
		for _, ev := range job.Obs.T().Events() {
			if ev.Cat == obs.CatJob {
				jobID = ev.ID
			}
			if ev.Cat == obs.CatPhase && strings.HasPrefix(ev.Name, "cache.") {
				byName[ev.Name] = append(byName[ev.Name], ev)
			}
		}
		if gets := byName["cache.get"]; len(gets) != 1 || gets[0].Parent != jobID || gets[0].Outcome != want.get {
			t.Errorf("%s run: cache.get spans %+v; want one under job span %d with outcome %q", want.get, gets, jobID, want.get)
		}
		if puts := byName["cache.put"]; len(puts) != want.puts || (len(puts) == 1 && puts[0].Parent != jobID) {
			t.Errorf("%s run: cache.put spans %+v; want %d under job span %d", want.get, puts, want.puts, jobID)
		}
	}
}

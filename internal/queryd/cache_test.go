package queryd

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"scikey/internal/cluster"
	"scikey/internal/core"
	"scikey/internal/hdfs"
	"scikey/internal/mapreduce"
	"scikey/internal/obs"
	"scikey/internal/scihadoop"
	"scikey/internal/store"
	"scikey/internal/workload"
)

// TestOutputSHAStreamsMultiBlockFiles: OutputSHA streams each output
// through the hash and still equals its definition, SHA-256 over the
// ReadAll bytes of the outputs in sorted path order, for outputs that span
// several blocks; it leaves no reader open.
func TestOutputSHAStreamsMultiBlockFiles(t *testing.T) {
	fs := hdfs.New(1024, 2, []string{"n0", "n1", "n2"})
	rng := rand.New(rand.NewSource(7))
	var paths []string
	for i, size := range []int{5000, 0, 1024, 3333, 1} {
		data := make([]byte, size)
		rng.Read(data)
		p := fmt.Sprintf("/out/part-%05d", i)
		if err := fs.WriteFile(p, data); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	// Result order is not partition order; OutputSHA sorts.
	res := &mapreduce.Result{OutputPaths: []string{paths[3], paths[0], paths[4], paths[2], paths[1]}}
	got, err := OutputSHA(fs, res)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]string(nil), paths...)
	sort.Strings(sorted)
	var all bytes.Buffer
	for _, p := range sorted {
		data, err := fs.ReadAll(p)
		if err != nil {
			t.Fatal(err)
		}
		all.Write(data)
	}
	sum := sha256.Sum256(all.Bytes())
	if want := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("OutputSHA %s, SHA-256 of the concatenated outputs %s", got, want)
	}
	if n := fs.OpenReaders(); n != 0 {
		t.Errorf("%d readers left open after OutputSHA", n)
	}
	res.OutputPaths = append(res.OutputPaths, "/out/missing")
	if _, err := OutputSHA(fs, res); err == nil {
		t.Error("OutputSHA hashed a missing output")
	}
	if n := fs.OpenReaders(); n != 0 {
		t.Errorf("%d readers left open after a failed OutputSHA", n)
	}
}

// TestEncodeSnapshotAllocatesOnce: the blob is sized before it is written,
// so encoding is one allocation of exactly the bytes it returns.
func TestEncodeSnapshotAllocatesOnce(t *testing.T) {
	data := bytes.Repeat([]byte{7}, 100_000)
	snap := &mapreduce.MapPhaseSnapshot{
		Attempts: []int{0, 2},
		Tasks: []mapreduce.RemoteResult{
			{Parts: [][]byte{data[:40_000], nil}, Counters: []int64{1, -2, 3}, Footprint: cluster.Task{DiskBytes: 1},
				InputBytes: 10, Hosts: []string{"node0", "node12"}, WallSeconds: 0.25},
			{Parts: [][]byte{data}, Counters: []int64{4}, Footprint: cluster.Task{CPUSeconds: 0.5}, InputBytes: 20, WallSeconds: 1},
		},
		Groups:      []mapreduce.NodeStats{{In: 9, Out: 4, RawBytes: 100, OutBytes: 60}},
		NumReducers: 2,
	}
	var b []byte
	if allocs := testing.AllocsPerRun(10, func() { b = encodeSnapshot(snap) }); allocs != 1 {
		t.Errorf("encodeSnapshot made %.1f allocations, want 1", allocs)
	}
	if cap(b) != len(b) {
		t.Errorf("blob has len %d, cap %d", len(b), cap(b))
	}
	back, err := decodeSnapshot(b)
	if err != nil || !bytes.Equal(encodeSnapshot(back), b) {
		t.Fatalf("the blob does not decode to the snapshot: %v", err)
	}
}

// statStore counts a Store's Stat calls.
type statStore struct {
	store.Store
	stats int
}

func (s *statStore) Stat(key string) (int64, error) {
	s.stats++
	return s.Store.Stat(key)
}

// TestSegmentCachePutStatsOnce: a fill asks the store for the size of the
// entry it replaces and no more — the entry's own size is its blob's
// length — and the byte gauge still matches what the store holds, for a
// new key and for an overwrite with a smaller snapshot.
func TestSegmentCachePutStatsOnce(t *testing.T) {
	st := &statStore{Store: localStore()}
	reg := obs.NewRegistry()
	c := NewSegmentCache(st, reg)
	data := bytes.Repeat([]byte{7}, 5_000)
	for _, n := range []int{5_000, 1_000} {
		st.stats = 0
		snap := &mapreduce.MapPhaseSnapshot{
			Attempts:    []int{0},
			Tasks:       []mapreduce.RemoteResult{{Parts: [][]byte{data[:n]}, Counters: []int64{1}}},
			NumReducers: 1,
		}
		if err := c.Put("k", snap); err != nil {
			t.Fatal(err)
		}
		if st.stats != 1 {
			t.Errorf("%d-byte fill: %d Stat calls, want 1", n, st.stats)
		}
		size, err := st.Store.Stat(storeKey("k"))
		if err != nil {
			t.Fatal(err)
		}
		if g := reg.Gauge("scikey_cache_bytes", "", "").Value(); g != size {
			t.Errorf("%d-byte fill: scikey_cache_bytes = %d, store holds %d", n, g, size)
		}
	}
}

// TestWarmHitsLeaveStoredSnapshotIntact: a hit reads the stored object in
// place — store.Get and decodeSnapshot copy no segment byte — so nothing on
// the read path may write to it. Over key shape × codec, plus a combining
// row, every warm run's output equals scihadoop.Reference and the stored
// object's SHA-256 after each hit is the one the fill stored.
func TestWarmHitsLeaveStoredSnapshotIntact(t *testing.T) {
	var specs []QuerySpec
	for _, strategy := range []string{"baseline", "aggregation"} {
		for _, codec := range []string{"none", "zlib", "transform+zlib"} {
			spec := QuerySpec{Side: 24, Strategy: strategy, Codec: codec, Op: "median", Radius: 1, Splits: 4, Reducers: 3}
			if strategy == "baseline" && codec == "transform+zlib" {
				spec.Strategy, spec.Codec = "transform", "zlib" // Section III's spelling
			}
			specs = append(specs, spec)
		}
	}
	specs = append(specs, QuerySpec{Side: 24, Strategy: "baseline", Codec: "none", Op: "max", Combine: true, CombineNodes: 2, Radius: 1, Splits: 4, Reducers: 3})
	for _, spec := range specs {
		t.Run(fmt.Sprintf("%s/%s/combine=%v", spec.Strategy, spec.Codec, spec.Combine), func(t *testing.T) {
			st := localStore()
			reg := obs.NewRegistry()
			c := NewSegmentCache(st, reg)
			key := spec.CacheKey()
			stored := func() [sha256.Size]byte {
				t.Helper()
				blob, err := st.Get(storeKey(key))
				if err != nil {
					t.Fatal(err)
				}
				return sha256.Sum256(blob)
			}
			run := func() {
				t.Helper()
				fs, qcfg, strat, err := spec.Setup()
				if err != nil {
					t.Fatal(err)
				}
				qcfg.MapCache, qcfg.CacheKey = c, key
				rep, err := core.RunQuery(fs, qcfg, strat, cluster.Paper(), true)
				if err != nil {
					t.Fatal(err)
				}
				field := &workload.Field{Extent: qcfg.DS.Extent, Name: qcfg.DS.Var.Name}
				want := scihadoop.Reference(field, qcfg.DS.Extent, spec.Radius, qcfg.Op)
				if len(rep.Output) != len(want) {
					t.Fatalf("%d output cells, reference has %d", len(rep.Output), len(want))
				}
				for k, w := range want {
					if g, ok := rep.Output[k]; !ok || g != w {
						t.Fatalf("cell %s = %d (present %v), reference %d", k, g, ok, w)
					}
				}
			}
			run() // the fill
			filled := stored()
			for hit := int64(1); hit <= 3; hit++ {
				run()
				if n := reg.Counter("scikey_cache_hit_total", "", "").Value(); n != hit {
					t.Fatalf("%d cache hits after %d warm runs", n, hit)
				}
				if stored() != filled {
					t.Fatalf("warm run %d changed the stored snapshot", hit)
				}
			}
		})
	}
}

// filledCache returns a segment cache over a fresh store holding the side-64
// baseline query's map-phase snapshot, and that query's cache key.
func filledCache(tb testing.TB) (*SegmentCache, string) {
	tb.Helper()
	spec := QuerySpec{Side: 64, Strategy: "baseline", Op: "median", Radius: 1, Splits: 10, Reducers: 5}
	fs, qcfg, strat, err := spec.Setup()
	if err != nil {
		tb.Fatal(err)
	}
	c := NewSegmentCache(localStore(), nil)
	qcfg.MapCache, qcfg.CacheKey = c, spec.CacheKey()
	if _, _, err := core.RunQueryResult(fs, qcfg, strat, cluster.Paper(), false); err != nil {
		tb.Fatal(err)
	}
	return c, qcfg.CacheKey
}

// storedSnapshot returns the snapshot c holds under key and its blob's size.
func storedSnapshot(tb testing.TB, c *SegmentCache, key string) (*mapreduce.MapPhaseSnapshot, int64) {
	tb.Helper()
	blob, err := c.store.Get(storeKey(key))
	if err != nil {
		tb.Fatal(err)
	}
	snap, err := decodeSnapshot(blob)
	if err != nil {
		tb.Fatal(err)
	}
	return snap, int64(len(blob))
}

// bytesPerCall is the heap bytes one call of fn allocates, averaged over n.
func bytesPerCall(n int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestSegmentCacheCopiesOnce: on the side-64 snapshot (about 1 MB), a hit
// allocates no segment bytes — at most 64 KiB, the decoded snapshot's
// tables — and a fill allocates its blob once: at most 1.1× the blob.
func TestSegmentCacheCopiesOnce(t *testing.T) {
	c, key := filledCache(t)
	snap, size := storedSnapshot(t, c, key)
	if hit := bytesPerCall(20, func() {
		if _, ok := c.Get(key); !ok {
			t.Fatal("cache miss")
		}
	}); hit > 64<<10 {
		t.Errorf("a hit on a %d-byte snapshot allocates %.0f bytes, want at most 64 KiB", size, hit)
	}
	if fill := bytesPerCall(20, func() {
		if err := c.Put(key, snap); err != nil {
			t.Fatal(err)
		}
	}); fill > 1.1*float64(size) {
		t.Errorf("a fill of a %d-byte snapshot allocates %.0f bytes, want at most 1.1× the blob", size, fill)
	}
}

// BenchmarkSegmentCacheHit is the service's warm read path up to the
// engine: SegmentCache.Get (store.Get, then decodeSnapshot) of the
// side-64 baseline query's map-phase snapshot.
func BenchmarkSegmentCacheHit(b *testing.B) {
	c, key := filledCache(b)
	n, err := c.store.Stat(storeKey(key))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(key); !ok {
			b.Fatal("cache miss")
		}
	}
}

// BenchmarkSegmentCacheFill is the service's write path after the job:
// SegmentCache.Put (encodeSnapshot, then store.Put) of the side-64 baseline
// query's map-phase snapshot, overwriting its entry.
func BenchmarkSegmentCacheFill(b *testing.B) {
	c, key := filledCache(b)
	snap, n := storedSnapshot(b, c, key)
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put(key, snap); err != nil {
			b.Fatal(err)
		}
	}
}

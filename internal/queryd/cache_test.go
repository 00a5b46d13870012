package queryd

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"scikey/internal/cluster"
	"scikey/internal/core"
	"scikey/internal/hdfs"
	"scikey/internal/mapreduce"
	"scikey/internal/obs"
	"scikey/internal/store"
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

// BenchmarkSegmentCacheHit is the service's warm read path up to the
// engine: SegmentCache.Get (store.Get, then decodeSnapshot) of the
// side-64 baseline query's map-phase snapshot.
func BenchmarkSegmentCacheHit(b *testing.B) {
	spec := QuerySpec{Side: 64, Strategy: "baseline", Op: "median", Radius: 1, Splits: 10, Reducers: 5}
	fs, qcfg, strat, err := spec.Setup()
	if err != nil {
		b.Fatal(err)
	}
	c := NewSegmentCache(localStore(), nil)
	qcfg.MapCache, qcfg.CacheKey = c, spec.CacheKey()
	if _, _, err := core.RunQueryResult(fs, qcfg, strat, cluster.Paper(), false); err != nil {
		b.Fatal(err)
	}
	n, err := c.store.Stat(storeKey(qcfg.CacheKey))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(qcfg.CacheKey); !ok {
			b.Fatal("cache miss")
		}
	}
}

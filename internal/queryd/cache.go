package queryd

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"scikey/internal/cluster"
	"scikey/internal/mapreduce"
	"scikey/internal/obs"
	"scikey/internal/store"
)

// snapMagic and snapVersion open every encoded snapshot; a decode checks
// both plus a whole-blob CRC trailer before trusting any field, and any
// mismatch is a miss, never a failed query.
const (
	snapMagic   = 0x53434d53 // "SCMS"
	snapVersion = 2
)

// SegmentCache is the service's shared map-output cache: an engine-facing
// mapreduce.MapOutputCache that serializes MapPhaseSnapshots into a
// store.Store, one CRC-trailed object per cache key. An object that fails to
// decode is a miss: Get deletes it and counts a decode error, so the next
// Put stores fresh segments under the key.
type SegmentCache struct {
	store store.Store

	hits         obs.Counter
	misses       obs.Counter
	puts         obs.Counter
	decodeErrors obs.Counter
	entries      obs.Gauge
	bytes        obs.Gauge

	mu         sync.Mutex
	entryCount int64
	byteCount  int64
}

// NewSegmentCache builds a cache over s, registering its metric series in
// reg (nil disables metrics).
func NewSegmentCache(s store.Store, reg *obs.Registry) *SegmentCache {
	c := &SegmentCache{
		store:        s,
		hits:         reg.Counter("scikey_cache_hit_total", "Map-output cache hits", ""),
		misses:       reg.Counter("scikey_cache_miss_total", "Map-output cache misses", ""),
		puts:         reg.Counter("scikey_cache_put_total", "Map-output cache stores", ""),
		decodeErrors: reg.Counter("scikey_cache_decode_errors_total", "Cached snapshots that failed integrity checks (treated as misses)", ""),
		entries:      reg.Gauge("scikey_cache_entries", "Map-output cache entries stored by this process", ""),
		bytes:        reg.Gauge("scikey_cache_bytes", "Segment payload bytes held by this process's cache entries", ""),
	}
	// Adopt entries already in the store, so the gauges count what it holds.
	if keys, err := s.List(cacheKeyPrefix); err == nil {
		for _, k := range keys {
			if n, err := s.Stat(k); err == nil {
				c.entryCount++
				c.byteCount += n
			}
		}
		c.entries.Set(c.entryCount)
		c.bytes.Set(c.byteCount)
	}
	return c
}

// cacheKeyPrefix namespaces cache objects inside the store.
const cacheKeyPrefix = "segcache/"

// storeKey hashes the engine cache key into a flat object name: keys are
// long canonical strings, and hashing keeps backends path-safe.
func storeKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return cacheKeyPrefix + hex.EncodeToString(sum[:])
}

// Get implements mapreduce.MapOutputCache. Store misses and snapshots that
// fail integrity checks both report a miss; a snapshot that fails is deleted
// and its bytes leave the entry gauges. A hit copies no segment byte: the
// snapshot's parts are slices of the stored object (decodeSnapshot).
func (c *SegmentCache) Get(key string) (*mapreduce.MapPhaseSnapshot, bool) {
	if c == nil {
		return nil, false
	}
	sk := storeKey(key)
	blob, err := c.store.Get(sk)
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	snap, err := decodeSnapshot(blob)
	if err != nil {
		c.decodeErrors.Add(1)
		c.misses.Add(1)
		if c.store.Delete(sk) == nil {
			c.account(-1, -int64(len(blob)))
		}
		return nil, false
	}
	c.hits.Add(1)
	return snap, true
}

// Put implements mapreduce.MapOutputCache. It reads the snapshot's part
// bytes once, into the encoded blob, and keeps nothing of snap. The blob is
// handed to the store, which keeps it as the object (store.Store.Put takes
// ownership): one copy of the map output per fill. The entry's size is
// len(blob): one Stat per fill, for the size of the entry it replaces.
func (c *SegmentCache) Put(key string, snap *mapreduce.MapPhaseSnapshot) error {
	if c == nil {
		return nil
	}
	sk := storeKey(key)
	prevBytes, statErr := c.store.Stat(sk)
	existed := statErr == nil
	blob := encodeSnapshot(snap)
	if err := c.store.Put(sk, blob); err != nil {
		return err
	}
	n := int64(len(blob))
	c.puts.Add(1)
	if existed {
		c.account(0, n-prevBytes)
	} else {
		c.account(1, n)
	}
	return nil
}

// account moves the entry and byte gauges by the given deltas.
func (c *SegmentCache) account(entries, bytes int64) {
	c.mu.Lock()
	c.entryCount += entries
	c.byteCount += bytes
	entries, bytes = c.entryCount, c.byteCount
	c.mu.Unlock()
	c.entries.Set(entries)
	c.bytes.Set(bytes)
}

// encodeSnapshot serializes a snapshot: header, one record per map task
// (its attempt, footprint, input bytes, wall seconds, hosts, published row
// and counters), the node groups' combine accounting, and a CRC32 trailer
// over everything before it. The blob is allocated once, at its exact
// size: it is mostly segment bytes, megabytes per query, which growing by
// append would copy about twice over.
func encodeSnapshot(s *mapreduce.MapPhaseSnapshot) []byte {
	b := make([]byte, 0, snapshotSize(s))
	u32 := func(v uint32) { b = binary.BigEndian.AppendUint32(b, v) }
	u64 := func(v uint64) { b = binary.BigEndian.AppendUint64(b, v) }
	i64 := func(v int64) { u64(uint64(v)) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	str := func(v string) { u32(uint32(len(v))); b = append(b, v...) }
	bytes := func(v []byte) { u32(uint32(len(v))); b = append(b, v...) }

	u32(snapMagic)
	u32(snapVersion)
	u32(uint32(len(s.Tasks)))
	u32(uint32(s.NumReducers))
	for i := range s.Tasks {
		t := &s.Tasks[i]
		u32(uint32(s.Attempts[i]))
		i64(t.Footprint.DiskBytes)
		i64(t.Footprint.NetBytes)
		f64(t.Footprint.CPUSeconds)
		i64(t.InputBytes)
		f64(t.WallSeconds)
		u32(uint32(len(t.Hosts)))
		for _, h := range t.Hosts {
			str(h)
		}
		u32(uint32(len(t.Parts)))
		for _, part := range t.Parts {
			bytes(part)
		}
		u32(uint32(len(t.Counters)))
		for _, v := range t.Counters {
			i64(v)
		}
	}
	u32(uint32(len(s.Groups)))
	for _, g := range s.Groups {
		i64(g.In)
		i64(g.Out)
		i64(g.RawBytes)
		i64(g.OutBytes)
	}
	u32(crc32.ChecksumIEEE(b))
	return b
}

// snapshotSize is the length of encodeSnapshot(s), field for field.
func snapshotSize(s *mapreduce.MapPhaseSnapshot) int {
	n := 4 * 4 // magic, version, task count, reducers
	for _, t := range s.Tasks {
		n += 4 + 5*8 + 4 // attempt, footprint, input bytes, wall, host count
		for _, h := range t.Hosts {
			n += 4 + len(h)
		}
		n += 4 // part count
		for _, part := range t.Parts {
			n += 4 + len(part)
		}
		n += 4 + 8*len(t.Counters)
	}
	return n + 4 + 4*8*len(s.Groups) + 4 // groups, CRC
}

// decodeSnapshot parses an encoded snapshot, verifying magic, version, and
// the CRC trailer. Every length and every element count is checked against
// the bytes that remain, so a truncated or corrupt blob errors instead of
// panicking or allocating for elements it cannot hold.
//
// The snapshot aliases b: each published part is decoded in place, a slice
// of b whose capacity is capped at its length, so an append by any consumer
// reallocates rather than overwriting the next part. b may be the store's
// own object (Store.Get copies nothing), so nothing may write to it: the
// parts are read-only. The engine commits each part as a remote attempt's
// output, which it reads and never writes or recycles into its buffer
// pool.
func decodeSnapshot(b []byte) (*mapreduce.MapPhaseSnapshot, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("queryd: snapshot too short")
	}
	body, trailer := b[:len(b)-4], binary.BigEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != trailer {
		return nil, fmt.Errorf("queryd: snapshot CRC mismatch")
	}
	off := 0
	var derr error
	need := func(n int) bool {
		if derr != nil || off+n > len(body) {
			if derr == nil {
				derr = fmt.Errorf("queryd: snapshot truncated at offset %d", off)
			}
			return false
		}
		return true
	}
	u32 := func() uint32 {
		if !need(4) {
			return 0
		}
		v := binary.BigEndian.Uint32(body[off:])
		off += 4
		return v
	}
	u64 := func() uint64 {
		if !need(8) {
			return 0
		}
		v := binary.BigEndian.Uint64(body[off:])
		off += 8
		return v
	}
	i64 := func() int64 { return int64(u64()) }
	f64 := func() float64 { return math.Float64frombits(u64()) }
	str := func() string {
		n := int(u32())
		if !need(n) {
			return ""
		}
		v := string(body[off : off+n])
		off += n
		return v
	}
	bs := func() []byte {
		n := int(u32())
		if !need(n) {
			return nil
		}
		v := body[off : off+n : off+n]
		off += n
		return v
	}

	// bounded rejects an element count the bytes that remain cannot hold —
	// every element takes at least minSize encoded bytes — before anything is
	// allocated for it: the CRC vouches for the bytes, not for what they claim.
	bounded := func(what string, n, minSize int) int {
		if derr == nil && (n < 0 || n > (len(body)-off)/minSize) {
			derr = fmt.Errorf("queryd: implausible %s count %d with %d snapshot bytes left", what, n, len(body)-off)
		}
		if derr != nil {
			return 0
		}
		return n
	}
	// Minimum encoded sizes: a task with no hosts, parts or counters, a
	// host's length prefix, an empty part, a counter, a group.
	const minTask, minHost, minPart, minCounter, minGroup = 4 + 5*8 + 3*4, 4, 4, 8, 4 * 8

	if u32() != snapMagic {
		return nil, fmt.Errorf("queryd: bad snapshot magic")
	}
	if v := u32(); v != snapVersion {
		return nil, fmt.Errorf("queryd: unsupported snapshot version %d", v)
	}
	n := int(u32())
	s := &mapreduce.MapPhaseSnapshot{NumReducers: int(u32())}
	n = bounded("task", n, minTask)
	s.Attempts = make([]int, n)
	s.Tasks = make([]mapreduce.RemoteResult, n)
	for i := 0; i < n && derr == nil; i++ {
		t := &s.Tasks[i]
		s.Attempts[i] = int(u32())
		t.Footprint = cluster.Task{DiskBytes: i64(), NetBytes: i64(), CPUSeconds: f64()}
		t.InputBytes = i64()
		t.WallSeconds = f64()
		nh := bounded("host", int(u32()), minHost)
		for h := 0; h < nh && derr == nil; h++ {
			t.Hosts = append(t.Hosts, str())
		}
		np := bounded("partition", int(u32()), minPart)
		t.Parts = make([][]byte, 0, np)
		for p := 0; p < np && derr == nil; p++ {
			t.Parts = append(t.Parts, bs())
		}
		nc := bounded("counter", int(u32()), minCounter)
		t.Counters = make([]int64, 0, nc)
		for c := 0; c < nc && derr == nil; c++ {
			t.Counters = append(t.Counters, i64())
		}
	}
	ng := bounded("group", int(u32()), minGroup)
	s.Groups = make([]mapreduce.NodeStats, 0, ng)
	for g := 0; g < ng && derr == nil; g++ {
		s.Groups = append(s.Groups, mapreduce.NodeStats{In: i64(), Out: i64(), RawBytes: i64(), OutBytes: i64()})
	}
	if derr != nil {
		return nil, derr
	}
	if off != len(body) {
		return nil, fmt.Errorf("queryd: %d trailing snapshot bytes", len(body)-off)
	}
	return s, nil
}

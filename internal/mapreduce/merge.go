package mapreduce

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"scikey/internal/bufpool"
	"scikey/internal/codec"
	"scikey/internal/faults"
	"scikey/internal/ifile"
)

// segment is one sorted run of intermediate pairs in its on-disk form
// (IFile framing, optionally compressed). Final map output segments carry
// their provenance (src, attempt) so a reducer that detects corruption can
// name — and re-execute — the producing map attempt; engine-internal runs
// (spills, merge passes) use src -1.
type segment struct {
	data    []byte
	records int64
	src     int // producing map task, or -1 for engine-internal segments
	attempt int // producing map attempt (meaningful when src >= 0)
	// decoded marks the plaintext validateSegments decoded from a coded
	// segment; it is counted in decodedLive until recycled.
	decoded bool
}

// decodedLive counts decoded final-level buffers not yet handed back to the
// buffer pool. It reads zero whenever no reduce attempt or node combine is
// running; the buffer-ownership tests hold every exit path to that.
var decodedLive atomic.Int64

// readEnv bundles what the segment read path needs: the codec, the optional
// fault injector, and the reading attempt's coordinates for fault rules and
// corruption reports.
type readEnv struct {
	codec codec.Codec
	inj   *faults.Injector
	// attempt is the reading (reduce) attempt, for codec-site fault rules.
	attempt int
	// part is the reducer partition being read, or -1 on the map side.
	part int
}

// kvArena bump-allocates record copies into one contiguous buffer,
// replacing the two heap allocations per merged record on the shuffle hot
// path. Growth abandons the old backing array to the already-handed-out
// slices (they stay valid), so reset/recycle only after every pair copied
// from the arena is dead.
type kvArena struct{ buf []byte }

func (a *kvArena) copy(p []byte) []byte {
	n := len(a.buf)
	a.buf = append(a.buf, p...)
	return a.buf[n : n+len(p) : n+len(p)]
}

func (a *kvArena) reset() { a.buf = a.buf[:0] }

// writerPools / readerPools cache codec stream state (a gzip writer alone is
// ~800 KiB) per codec instance across the thousands of segments a job
// writes and reads.
var (
	writerPools sync.Map // codec.Codec -> *codec.WriterPool
	readerPools sync.Map // codec.Codec -> *codec.ReaderPool
)

func writerPoolFor(c codec.Codec) *codec.WriterPool {
	if v, ok := writerPools.Load(c); ok {
		return v.(*codec.WriterPool)
	}
	v, _ := writerPools.LoadOrStore(c, codec.NewWriterPool(c))
	return v.(*codec.WriterPool)
}

func readerPoolFor(c codec.Codec) *codec.ReaderPool {
	if v, ok := readerPools.Load(c); ok {
		return v.(*codec.ReaderPool)
	}
	v, _ := readerPools.LoadOrStore(c, codec.NewReaderPool(c))
	return v.(*codec.ReaderPool)
}

// wrapErr classifies a segment read error. Injected transient errors pass
// through (the scheduler retries the reading attempt); anything else from a
// provenance-tagged segment — CRC mismatch, broken framing, codec decode
// failure — is corruption of that map task's output.
func (e readEnv) wrapErr(src, srcAttempt int, err error) error {
	if err == nil || src < 0 || faults.IsTransient(err) {
		return err
	}
	return &ErrCorruptSegment{MapTask: src, Partition: e.part, Attempt: srcAttempt, Err: err}
}

// appendWriter is an io.Writer over a growable byte slice, the pooled
// replacement for a per-segment bytes.Buffer.
type appendWriter struct{ buf []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// segWriterState bundles the per-writeSegment scaffolding (output sink and
// IFile framing state) so the steady-state spill/merge loop allocates only
// the segment bytes it actually keeps.
type segWriterState struct {
	aw appendWriter
	iw ifile.Writer
}

var segWriterStatePool = sync.Pool{New: func() any { return new(segWriterState) }}

// encodeSegment runs fill over a pooled IFile-over-codec writer and returns
// what it wrote as an engine-internal segment; fill reports how many records
// it appended. sizeHint seeds the pooled output buffer, which still grows
// if the hint is short. The segment's storage comes from the buffer pool;
// hand it to recycleSegment once it is merged away.
func encodeSegment(c codec.Codec, sizeHint int, fill func(iw *ifile.Writer) (records int64, err error)) (segment, error) {
	sw := segWriterStatePool.Get().(*segWriterState)
	sw.aw.buf = bufpool.Get(sizeHint)
	cw := writerPoolFor(c).Get(&sw.aw)
	sw.iw.Reset(cw)
	records, err := fill(&sw.iw)
	if err == nil {
		err = sw.iw.Close()
	}
	if err == nil {
		err = cw.Close()
	}
	if err != nil {
		// Mid-stream writers carry unknown state; drop rather than pool.
		bufpool.Put(sw.aw.buf)
		sw.aw.buf = nil
		segWriterStatePool.Put(sw)
		return segment{}, err
	}
	writerPoolFor(c).Put(cw)
	data := sw.aw.buf
	sw.aw.buf = nil
	segWriterStatePool.Put(sw)
	return segment{data: data, records: records, src: -1}, nil
}

// writeSegmentStream encodes a sorted record stream through the codec into
// IFile form, so a combined or rewritten segment never exists as a pair
// slice. The merge pass passes its input bytes as sizeHint, an upper bound
// for the uncompressed codec.
func writeSegmentStream(src kvStream, c codec.Codec, sizeHint int) (segment, error) {
	return encodeSegment(c, sizeHint, func(iw *ifile.Writer) (int64, error) {
		var records int64
		for {
			kv, err := src.pull()
			if kv == nil {
				return records, err
			}
			if err := iw.Append(kv.Key, kv.Value); err != nil {
				return records, err
			}
			records++
		}
	})
}

// recycleSegment returns an engine-internal segment's backing storage to
// the buffer pool. Final map outputs (src >= 0) are never recycled: retried
// and speculative reduce attempts re-read them.
func recycleSegment(seg segment) {
	if seg.src < 0 {
		if seg.decoded {
			decodedLive.Add(-1)
		}
		bufpool.Put(seg.data)
	}
}

// segIter streams the records of one raw segment, parsed where it lies.
// Iterators are pooled.
type segIter struct {
	ir  ifile.Reader
	env readEnv
	// src/attempt are the segment's provenance, for corruption reports.
	src        int
	srcAttempt int
	// cur is the current record, two sub-slices of the segment: its bytes
	// stay valid until the segment is recycled, cur itself until the next
	// advance.
	cur KV
	ok  bool
	err error
	// hi/lo are cur's key words while the merge reading this iterator
	// compares by words (mergeHeap.note).
	hi, lo uint64
}

var segIterPool = sync.Pool{New: func() any { return new(segIter) }}

// openSegment positions an iterator on the first record of seg, which must
// be raw: a coded segment or one a codec-site fault rule may cover goes
// through validateSegments first, which hands back a raw level.
func openSegment(seg segment, env readEnv) (*segIter, error) {
	it := segIterPool.Get().(*segIter)
	it.ir.ResetBytes(seg.data)
	it.env = env
	it.src, it.srcAttempt = seg.src, seg.attempt
	it.err = nil
	it.advance()
	return it, it.err
}

// release returns an iterator to the pool, exhausted, failed, or abandoned
// mid-stream alike. It must not be called while cur is still referenced.
func (it *segIter) release() {
	it.ir.ResetBytes(nil)
	it.env = readEnv{}
	it.cur = KV{}
	segIterPool.Put(it)
}

func (it *segIter) advance() {
	k, v, err := it.ir.Next()
	if err != nil {
		if err != io.EOF {
			it.err = it.env.wrapErr(it.src, it.srcAttempt, err)
		}
		it.ok = false
		return
	}
	it.cur = KV{Key: k, Value: v}
	it.ok = true
}

// keyOrder is what a merge orders keys by: the job's Compare, and its
// SortWords where the job has them.
type keyOrder struct {
	compare func(a, b []byte) int
	words   func(key []byte) (hi, lo uint64, end int, ok bool)
}

// order is the job's key order for its merges.
func (j *Job) order() keyOrder { return keyOrder{j.Compare, j.SortWords} }

// mergeHeap is a binary min-heap of segment iterators by their current
// key. init, down(0) and pop make exactly the comparisons and swaps of
// container/heap's Init, Fix(0) and Pop (Fix(0) never sifts up), so equal
// keys leave in the order they always have: the bytes every merge pass
// writes depend on it (DESIGN §6 "Merge heap").
//
// While every key it has seen yields words under the first key's variable
// section, it compares each iterator's cached (hi, lo), read once per
// record when the iterator advances. The first key that does not switches
// the merge to compare for good. The switch never changes an answer less
// gave — SortWords orders same-section keys as Compare does, equality
// included — so the heap stays valid across it.
type mergeHeap struct {
	its     []*segIter
	ord     keyOrder
	byWords bool
	sec     []byte // the first key's variable section, while byWords
}

func (h *mergeHeap) less(a, b *segIter) bool {
	if h.byWords {
		return a.hi < b.hi || a.hi == b.hi && a.lo < b.lo
	}
	return h.ord.compare(a.cur.Key, b.cur.Key) < 0
}

// note caches the words of it.cur's key, or ends the merge's words mode
// when that key has none under the merge's variable section.
func (h *mergeHeap) note(it *segIter) {
	if !h.byWords {
		return
	}
	hi, lo, end, ok := h.ord.words(it.cur.Key)
	if !ok || string(it.cur.Key[:end]) != string(h.sec) {
		h.byWords = false
		return
	}
	it.hi, it.lo = hi, lo
}

// init heapifies its, in words mode when the job has words and the first
// iterator's key yields them.
func (h *mergeHeap) init() {
	if h.ord.words != nil && len(h.its) > 0 {
		k := h.its[0].cur.Key
		if _, _, end, ok := h.ord.words(k); ok {
			h.sec, h.byWords = bytes.Clone(k[:end]), true
			for _, it := range h.its {
				h.note(it)
			}
		}
	}
	for i := len(h.its)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down is container/heap's sift-down: the smaller child, the left one on a
// tie, moves up while it is less than i.
func (h *mergeHeap) down(i int) {
	its, n := h.its, len(h.its)
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if j2 := j + 1; j2 < n && h.less(its[j2], its[j]) {
			j = j2
		}
		if !h.less(its[j], its[i]) {
			return
		}
		its[i], its[j] = its[j], its[i]
		i = j
	}
}

// pop removes the head: the last iterator takes its place and sifts down.
func (h *mergeHeap) pop() *segIter {
	n := len(h.its) - 1
	h.its[0], h.its[n] = h.its[n], h.its[0]
	it := h.its[n]
	h.its = h.its[:n]
	h.down(0)
	return it
}

// kvStream is a pull iterator over a sorted record run — what a merge pass
// writes out, a node combine folds and a MergeTransform window is gathered
// from, so one partition is never materialized as a slice. (A reduce
// attempt's grouping loop pulls its merge and transform as concrete types,
// through reduceStream.) pull returns the next record where it lies, or nil
// at end of stream and on error; after either the stream must not be
// pulled again. A returned record, the KV and the bytes it points at, is
// valid until the next pull: it may alias the stream's own fields or the
// segment itself, so a consumer that keeps a record past that copies it. close releases pooled resources and is idempotent; it
// must be called exactly when no previously returned record is still
// referenced.
type kvStream interface {
	pull() (*KV, error)
	close()
}

// mergeStream is the pull-based k-way merge over sorted segments — the
// reducer-side "merge sort" of Fig. 1 step 5 as a stream, so a reduce
// attempt holds one record per open segment (O(mergeFactor · record))
// instead of the whole partition. Reading every segment to its end also
// verifies each stream's IFile CRC, so corruption anywhere in a fetched
// segment surfaces from pull as an ErrCorruptSegment.
type mergeStream struct {
	h mergeHeap
	// pending marks that the heap head's cur was handed out by the last
	// next call and the iterator must advance before the next record is
	// chosen — deferred so the caller can use the record first.
	pending bool
	closed  bool
	// records, when set, receives got — the records handed out — at end
	// of stream and at close: a fully drained (winning) reduce attempt
	// lands on exactly its partition's record count.
	records *Counter
	got     int64
}

// validateSegments checks a merge level before any of its records is
// merged: the final level before grouping interleaves with decoding, so a
// corrupted map output surfaces here as an ErrCorruptSegment naming the
// producing attempt, never as whatever user code does with garbage bytes
// mid-stream; and every batch mergeDown merges. Each provenance-tagged
// segment (src >= 0) is read to its trailing CRC without copying a record,
// after the codec-site fault rules had their say over its read;
// engine-internal ones (src < 0) came from already-validated inputs and are
// not scanned. It returns the level to merge, always raw, and the fetched
// bytes read, for disk accounting.
//
// On a coded level the scan is the one decode (decodeSegmentOnce): every
// segment, mergeDown's outputs included, comes back as pooled plaintext
// with src -1, and the coded engine-internal inputs are recycled. Fetched
// map outputs are never recycled: retries and twins re-read them. A raw
// level comes back as it went in.
//
// Ownership: the level is consumed. On success the caller recycles what
// comes back once the merge over it is closed; on failure every
// engine-internal buffer is already back in the pool.
//
// Validation is per segment, so it is per core where a scan costs a decode:
// each coded segment is decoded and scanned on a helper holding a spare
// CPU-pool token, or inline on the caller's goroutine when none is free.
// Every segment is scanned and the lowest-index failure is the one
// reported, so the error names the producer a sequential scan would have
// named however the scans interleave. Raw segments keep the sequential
// scan, which stops at the first failure and allocates nothing: a CRC at
// memory speed is cheaper than the goroutines.
func validateSegments(segs []segment, env readEnv) ([]segment, int64, error) {
	var read int64
	if env.codec == codec.None {
		for _, seg := range segs {
			if err := scanSegment(seg, env); err != nil {
				for _, s := range segs {
					recycleSegment(s)
				}
				return nil, read, err
			}
			if seg.src >= 0 {
				read += int64(len(seg.data))
			}
		}
		return segs, read, nil
	}
	errs := make([]error, len(segs))
	level := make([]segment, len(segs))
	var wg sync.WaitGroup
	for i, seg := range segs {
		cpu.fork(&wg, func() { level[i], errs[i] = decodeSegmentOnce(seg, env) })
	}
	wg.Wait()
	for _, seg := range segs {
		recycleSegment(seg)
	}
	for i, seg := range segs {
		if errs[i] != nil {
			for _, s := range level {
				recycleSegment(s)
			}
			return nil, read, errs[i]
		}
		if seg.src >= 0 {
			read += int64(len(seg.data))
		}
	}
	return level, read, nil
}

// decodeSegmentOnce consults the codec-site fault rules for seg's read,
// drains its codec stream into a pooled buffer and checks that buffer in
// one pass (ifile.Verify) when seg is provenance-tagged. Errors from any
// step name seg's producer.
func decodeSegmentOnce(seg segment, env readEnv) (segment, error) {
	if len(seg.data) == 0 {
		return segment{src: -1}, nil
	}
	if err := env.inj.SegmentRead(seg.src, env.attempt); err != nil {
		return segment{src: -1}, err
	}
	rc, err := readerPoolFor(env.codec).Get(bytes.NewReader(seg.data))
	if err != nil {
		return segment{src: -1}, env.wrapErr(seg.src, seg.attempt, err)
	}
	plain, err := drainPooled(rc, 4*len(seg.data))
	rc.Close()
	readerPoolFor(env.codec).Put(rc)
	if err != nil {
		return segment{src: -1}, env.wrapErr(seg.src, seg.attempt, err)
	}
	decodedLive.Add(1)
	out := segment{data: plain, records: seg.records, src: -1, decoded: true}
	if seg.src >= 0 {
		if err := ifile.Verify(plain); err != nil {
			recycleSegment(out)
			return segment{src: -1}, env.wrapErr(seg.src, seg.attempt, err)
		}
	}
	return out, nil
}

// drainPooled reads r to EOF into a buffer-pool buffer of at least hint
// bytes, doubling through the pool when the stream outgrows it. On error
// the buffer is already back in the pool.
func drainPooled(r io.Reader, hint int) ([]byte, error) {
	buf := bufpool.Get(hint)
	for {
		if len(buf) == cap(buf) {
			grown := append(bufpool.Get(2*cap(buf)), buf...)
			bufpool.Put(buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			bufpool.Put(buf)
			return nil, err
		}
	}
}

// scanSegment checks one raw provenance-tagged segment: the codec-site
// fault rules have their say over its read, then one pass over its bytes
// (ifile.Verify) finds what the IFile framing or checksum has to say.
func scanSegment(seg segment, env readEnv) error {
	if seg.src < 0 || len(seg.data) == 0 {
		return nil
	}
	if err := env.inj.SegmentRead(seg.src, env.attempt); err != nil {
		return err
	}
	return env.wrapErr(seg.src, seg.attempt, ifile.Verify(seg.data))
}

// newMergeStream opens every segment of a raw level (validateSegments')
// and primes the heap; env names the partition in corruption reports. On
// error all already-opened iterators are released back to their pools.
func newMergeStream(segs []segment, env readEnv, ord keyOrder) (*mergeStream, error) {
	m := &mergeStream{h: mergeHeap{ord: ord}}
	for _, s := range segs {
		if len(s.data) == 0 {
			continue
		}
		it, err := openSegment(s, env)
		if err != nil {
			// A first-record decode error hands back the iterator; it is
			// not in the heap yet, so close() alone would strand it.
			if it != nil {
				it.release()
			}
			m.close()
			return nil, fmt.Errorf("mapreduce: opening segment: %w", err)
		}
		if it.ok {
			m.h.its = append(m.h.its, it)
		} else {
			it.release()
		}
	}
	m.h.init()
	return m, nil
}

// pull returns the next record where it lies, in the heap head's iterator,
// or nil at end of stream and on error.
func (m *mergeStream) pull() (*KV, error) {
	if m.pending {
		m.pending = false
		it := m.h.its[0]
		it.advance()
		if it.err != nil {
			err := it.err
			m.close()
			return nil, err
		}
		if it.ok {
			m.h.note(it)
			m.h.down(0)
		} else {
			m.h.pop().release()
		}
	}
	if len(m.h.its) == 0 {
		m.flush()
		return nil, nil
	}
	m.pending = true
	m.got++
	return &m.h.its[0].cur, nil
}

// flush adds the tally to records and restarts it, so a close after end of
// stream adds nothing twice.
func (m *mergeStream) flush() {
	if m.records != nil {
		m.records.Add(m.got)
	}
	m.got = 0
}

// close releases every iterator still in the heap, survivors of a
// mid-merge error included.
func (m *mergeStream) close() {
	if m.closed {
		return
	}
	m.closed = true
	m.flush()
	for _, it := range m.h.its {
		it.release()
	}
	m.h.its = nil
	m.pending = false
}

// mergeDown repeatedly merges batches of up to factor segments into single
// segments until at most target remain — Hadoop's multi-pass on-disk merge
// (io.sort.factor), the "multiple on-disk sort phases" of Fig. 1 step 5.
// Every intermediate pass re-reads and re-writes its inputs; acct receives
// those byte counts so the cost model sees why bulky intermediate data
// hurts twice.
//
// The inputs are coded with env.codec and so is what every intermediate pass
// writes; last is the codec of the pass that reaches target. The reduce side
// passes its read codec. The map side reads raw spills and passes the job's
// codec with target 1, so the record stream is coded exactly once, in the
// pass that writes the published segment — which a lone segment therefore
// still takes.
//
// Each batch goes through validateSegments first, which checks its fetched
// segments and decodes a coded batch whole, so the pass merges a raw level
// in place and recycles it once the merged segment is written. A pass holds
// at most factor segments of plaintext, less than the final level a coded
// reduce attempt decodes.
func mergeDown(segs []segment, env readEnv, ord keyOrder, factor, target int, last codec.Codec, acct func(read, written, records int64)) ([]segment, error) {
	if factor < 2 {
		factor = 2
	}
	if target < 1 {
		target = 1
	}
	coded := last == env.codec
	for len(segs) > target || !coded {
		n := min(factor, len(segs))
		out := env.codec
		if len(segs)-n+1 <= target {
			out, coded = last, true
		}
		// Hadoop merges the smallest segments first to minimize rewriting.
		sortSegmentsBySize(segs)
		batch := segs[:n]
		var read int64
		for _, s := range batch {
			read += int64(len(s.data))
		}
		level, _, err := validateSegments(batch, env)
		if err != nil {
			return nil, err
		}
		var merged segment
		m, err := newMergeStream(level, env, ord)
		if err == nil {
			merged, err = writeSegmentStream(m, out, int(read)+ifile.TrailerLen)
			m.close()
		}
		for _, s := range level {
			recycleSegment(s)
		}
		if err != nil {
			return nil, err
		}
		if acct != nil {
			acct(read, int64(len(merged.data)), merged.records)
		}
		segs = append([]segment{merged}, segs[n:]...)
	}
	return segs, nil
}

// sortSegmentsBySize orders segments smallest-first, stably. mergeDown
// re-sorts before every pass, so this must not go quadratic when a reducer
// fetches segments far in excess of the merge factor.
func sortSegmentsBySize(segs []segment) {
	slices.SortStableFunc(segs, func(a, b segment) int {
		return len(a.data) - len(b.data)
	})
}

// reduceStream is what a reduce attempt groups: its final merge, read
// directly, or the transformStream stacked on it when the job has a
// MergeTransform. Both are concrete, so a record costs no interface call on
// the way from the merge heap to the grouping loop.
type reduceStream struct {
	m *mergeStream
	t *transformStream // nil without a MergeTransform; its src is m
}

// pull returns the next record where it lies, valid until the next pull,
// or nil at end of stream and on error.
func (s reduceStream) pull() (*KV, error) {
	if s.t != nil {
		return s.t.pull()
	}
	return s.m.pull()
}

// words returns the words the merge heap cached for the key pull just
// returned, and whether they decide that key's group: only while the merge
// is in words mode, and only for records straight from the merge — a
// transform's output keys have no words.
func (s reduceStream) words() (hi, lo uint64, ok bool) {
	if s.t != nil || !s.m.h.byWords {
		return 0, 0, false
	}
	it := s.m.h.its[0]
	return it.hi, it.lo, true
}

// groupReduce walks a reduce attempt's sorted record stream, invoking red
// once per group of equal keys (per cmp), as Hadoop's reduce-phase grouping
// iterator does. Only the current group is held in memory. It aborts
// between groups when the attempt is canceled, and — when bail is non-nil —
// when bail reports a downstream error, so a failed reduce-output write
// stops the attempt promptly instead of reducing on into a dead writer.
//
// While the merge is in words mode a record joins the group when its cached
// words equal the group's first key's: under one variable section equal
// words are exactly Compare == 0 (DESIGN §6 "Grouping by words"). From the
// first record pulled after the merge left words mode — mid-group included
// — cmp decides, as it does for a transform's output.
//
// The stream's records are valid only until its next pull, so each group's
// key and values are copied into one arena as they arrive; the next
// group's first record is still valid while red runs, since nothing pulls
// in between, and is copied once the arena is reset. Arguments passed to
// Reduce are only valid during the call (Hadoop's iterator-reuse
// contract), and the values slice is reused from group to group, so an
// attempt allocates it once, not once per group.
//
// It points the merge's tally at ReduceInputRecords and tallies the groups
// itself, added once on every way out; counters are attempt-private until
// commit.
func groupReduce(ctx *TaskContext, s reduceStream, cmp func(a, b []byte) int, red Reducer, emit Emit, bail func() error) error {
	s.m.records = &ctx.counters.ReduceInputRecords
	var groups int64
	defer func() { ctx.counters.ReduceInputGroups.Add(groups) }()
	var arena kvArena
	var values [][]byte
	kv, err := s.pull()
	for kv != nil {
		if ctx.Canceled() {
			return ErrAttemptCanceled
		}
		if bail != nil {
			if err := bail(); err != nil {
				return err
			}
		}
		arena.reset()
		key := arena.copy(kv.Key)
		values = append(values[:0], arena.copy(kv.Value))
		hi, lo, _ := s.words()
		for {
			if kv, err = s.pull(); kv == nil {
				break
			}
			if h, l, byWords := s.words(); byWords {
				if h != hi || l != lo {
					break
				}
			} else if cmp(key, kv.Key) != 0 {
				break
			}
			values = append(values, arena.copy(kv.Value))
		}
		if err != nil {
			return err
		}
		groups++
		if err := red.Reduce(ctx, key, values, emit); err != nil {
			return err
		}
	}
	return err
}

// transformStream adapts the whole-slice MergeTransform hook to the
// streaming reduce: it buffers a bounded lookahead window of records,
// closes the window where the job's cut predicate says later keys cannot
// interact with it, runs the transform over that window, and streams the
// rewritten records out. With a nil cut the whole stream is one window —
// the transform's defining form, for transforms with unknown locality. The
// transform keeps its func([]KV) []KV signature either way. Each record is
// copied into one reused arena as it arrives, into one reused window slice;
// both are reset at the next fill, once the previous window's output has
// been drained, so the transform's argument is valid until then.
//
// The split counter is settled once at end of stream: windows partition
// the input, so the summed output-minus-input surplus equals the surplus
// of one transform call over the whole partition.
type transformStream struct {
	src       *mergeStream
	transform func([]KV) []KV
	cut       func(key []byte) bool
	splits    *Counter

	arena   kvArena
	window  []KV
	out     []KV
	pos     int
	pending KV
	have    bool
	eof     bool
	counted bool

	totalIn  int64
	totalOut int64
}

// pull returns the next record where it lies, in the transform's output,
// or nil at end of stream and on error.
func (t *transformStream) pull() (*KV, error) {
	for {
		if t.pos < len(t.out) {
			t.pos++
			return &t.out[t.pos-1], nil
		}
		if t.eof && !t.have {
			if !t.counted {
				t.counted = true
				if d := t.totalOut - t.totalIn; d > 0 {
					t.splits.Add(d)
				}
			}
			return nil, nil
		}
		if err := t.fill(); err != nil {
			return nil, err
		}
	}
}

// fill gathers the next window and runs the transform over it. The cut
// predicate sees every key exactly once, in stream order; returning true
// seals the window before that key, which becomes the next window's first
// record. The pending record is still valid when the next fill copies it:
// the source is not pulled in between.
func (t *transformStream) fill() error {
	t.arena.reset()
	t.window = t.window[:0]
	if t.have {
		t.window = append(t.window, KV{Key: t.arena.copy(t.pending.Key), Value: t.arena.copy(t.pending.Value)})
		t.pending, t.have = KV{}, false
	}
	for !t.eof {
		kv, err := t.src.pull()
		if kv == nil {
			if err != nil {
				return err
			}
			t.eof = true
			break
		}
		if t.cut != nil && t.cut(kv.Key) && len(t.window) > 0 {
			t.pending, t.have = *kv, true
			break
		}
		t.window = append(t.window, KV{Key: t.arena.copy(kv.Key), Value: t.arena.copy(kv.Value)})
	}
	if len(t.window) == 0 {
		t.out, t.pos = nil, 0
		return nil
	}
	t.out, t.pos = t.transform(t.window), 0
	t.totalIn += int64(len(t.window))
	t.totalOut += int64(len(t.out))
	return nil
}

package mapreduce

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"scikey/internal/bufpool"
	"scikey/internal/cluster"
	"scikey/internal/codec"
	"scikey/internal/faults"
	"scikey/internal/ifile"
	"scikey/internal/obs"
)

// mapTask executes one attempt of a mapper: collect, partition (splitting
// aggregate keys when configured), sort, combine, spill, and merge spills
// into one final segment per partition. Each attempt owns its buffers and
// counters, so concurrent attempts of the same task (retries racing
// speculative twins) never share state; the scheduler commits exactly one.
//
// Spilling is pipelined when a core is spare: at the first spill that finds
// a free token in the process's CPU pool, the filled partition buffers are
// swapped out and handed to a single background worker that sorts, combines
// and writes them as raw IFile runs while the mapper keeps collecting the
// next spill's records. One worker draining a one-slot queue keeps spill
// segments in exactly the order a synchronous spill would produce (the
// output bytes are identical) and bounds the attempt at three spill buffer
// sets. Without a free token the attempt spills in place on its own
// goroutine and holds one set.
//
// A segment is coded if and only if it is the task's final map output:
// spills are attempt-private scratch that never crosses the shuffle, so
// Job.MapOutputCodec runs once per partition, in the pass of finalize that
// writes the published segment — or directly in spillParts when the tail
// flushed from finalize is the task's only spill.
type mapTask struct {
	job     *Job
	id      int
	attempt int
	ctx     *TaskContext

	parts    *partSet // the collecting set; nil until run holds a token and once it returns
	buffered int
	spills   [][]segment // per partition; owned by the spill worker until drained
	// emitted tallies the map output counters per attempt; run adds it to
	// the attempt's counters once Map returns.
	emitted struct{ records, keyBytes, valueBytes int64 }
	// routed is Job.PartitionSplit's scratch, truncated for every emit.
	routed []RoutedKV

	// Spill pipeline state. Once the worker runs, spillErr and spillBytes are
	// written only by it and read only after drainSpills observes spillDone;
	// before that the attempt's goroutine spills in place and owns them.
	spillCh     chan *partSet
	spillDone   chan struct{}
	spillClosed bool
	spillErr    error
	spillBytes  int64

	footprint cluster.Task
	hosts     []string
	finals    []segment // one per partition after finalize

	// tracer/span parent this attempt's phase spans (zero when the job has
	// no Observer); wallSeconds is the attempt's wall-clock duration, a
	// cost-model calibration sample if the attempt wins.
	tracer      *obs.Tracer
	span        obs.SpanID
	wallSeconds float64
}

// partBuffer collects one partition's records: each record's key and value
// are appended next to each other in the arena, and a 12-byte kvRef locates
// them. No slice into the arena is handed out while it collects, so arena
// growth leaves nothing pinned, and steady-state collection costs no
// per-record heap allocations.
type partBuffer struct {
	refs  []kvRef
	arena []byte
}

// kvRef locates one buffered record: its key at arena[off:off+klen], its
// value right after. Job.validate keeps every offset within 32 bits.
type kvRef struct{ off, klen, vlen uint32 }

// newKVRef builds the reference for a record appended at offset off; a
// record that cannot be addressed in 32 bits panics with its sizes.
func newKVRef(off, klen, vlen int) kvRef {
	if uint64(off) > math.MaxUint32 || uint64(klen) > math.MaxUint32 || uint64(vlen) > math.MaxUint32 {
		panic(fmt.Sprintf("mapreduce: a record with a %d-byte key and a %d-byte value at spill-buffer offset %d does not fit a 32-bit reference", klen, vlen, off))
	}
	return kvRef{off: uint32(off), klen: uint32(klen), vlen: uint32(vlen)}
}

func (pb *partBuffer) key(r kvRef) []byte {
	return pb.arena[int(r.off) : int(r.off)+int(r.klen)]
}

// record returns r's key and value as capacity-capped views of the arena.
func (pb *partBuffer) record(r kvRef) KV {
	k := int(r.off)
	v := k + int(r.klen)
	e := v + int(r.vlen)
	return KV{Key: pb.arena[k:v:v], Value: pb.arena[v:e:e]}
}

// sizeBound upper-bounds the encoded size of the buffered records (payload
// + max framing + trailer) so the pooled output buffer never regrows
// through unpooled reallocations.
func (pb *partBuffer) sizeBound() int {
	est := ifile.TrailerLen + len(pb.arena)
	for _, r := range pb.refs {
		est += ifile.RecordOverhead(int(r.klen), int(r.vlen))
	}
	return est
}

func (pb *partBuffer) reset() {
	pb.refs = pb.refs[:0]
	pb.arena = pb.arena[:0]
}

// refStream streams a sorted partition buffer's records, the source a
// spill writes (through combineStream when the job combines at spill time).
type refStream struct {
	pb  *partBuffer
	pos int
	cur KV // the record pull last returned
}

func (s *refStream) pull() (*KV, error) {
	if s.pos >= len(s.pb.refs) {
		return nil, nil
	}
	s.cur = s.pb.record(s.pb.refs[s.pos])
	s.pos++
	return &s.cur, nil
}

func (s *refStream) close() {}

// partSet is one spill buffer set: a partition buffer per reducer, and the
// word sort's scratch, which a spill shares between the set's partitions
// because it sorts them one after another.
type partSet struct {
	bufs  []partBuffer
	words wordSort
}

// partBufferPool recycles whole partition-buffer sets (including each
// buffer's refs and arena storage, and the sort scratch) between spills and
// attempts.
var partBufferPool sync.Pool

func getPartBuffers(n int) *partSet {
	if v := partBufferPool.Get(); v != nil {
		if set := v.(*partSet); len(set.bufs) == n {
			return set
		}
	}
	return &partSet{bufs: make([]partBuffer, n)}
}

func putPartBuffers(set *partSet) {
	for i := range set.bufs {
		set.bufs[i].reset()
	}
	partBufferPool.Put(set)
}

// newMapTask prepares one attempt of map task id; canceling ctx stops it.
// The attempt takes its partition-buffer set only once run holds a CPU
// token, so an attempt queued for a core pins no buffers.
func newMapTask(ctx context.Context, job *Job, id, attempt int) *mapTask {
	return &mapTask{
		job:     job,
		id:      id,
		attempt: attempt,
		ctx: &TaskContext{
			TaskID:   id,
			Attempt:  attempt,
			IsMap:    true,
			FS:       job.FS,
			counters: &Counters{},
			done:     ctx.Done(),
		},
		spills: make([][]segment, job.NumReducers),
	}
}

// counters returns this attempt's private counters, merged into the job
// totals only if the attempt commits.
func (t *mapTask) counters() *Counters { return t.ctx.counters }

func (t *mapTask) run(split Split) (err error) {
	defer containPanic("map", t.id, t.attempt, &err)
	if !cpu.acquire(t.ctx.done) {
		return ErrAttemptCanceled
	}
	defer cpu.release()
	// The clock starts once the attempt holds a core, so neither the cost
	// model's samples nor its footprint count the wait for one.
	start := time.Now()
	// Charge elapsed compute on every exit so failed attempts still show
	// up as wasted work in the cost model.
	defer func() {
		t.footprint.CPUSeconds += time.Since(start).Seconds()
		t.wallSeconds = time.Since(start).Seconds()
	}()
	// Never leave the spill worker running or a buffer set pinned to a
	// finished attempt (a committed one lives until the job ends), whatever
	// exit path is taken.
	t.parts = getPartBuffers(t.job.NumReducers)
	defer t.releaseParts()
	defer t.drainSpills()
	t.hosts = split.Hosts
	if err := t.job.Faults.Attempt(faults.SiteMap, t.id, t.attempt); err != nil {
		return fmt.Errorf("mapreduce: map task %d: %w", t.id, err)
	}
	mapper := t.job.NewMapper()
	sp := t.tracer.Start(obs.CatPhase, "map", t.span, t.id, t.attempt)
	err = mapper.Map(t.ctx, split, t.emit)
	sp.End()
	c := t.ctx.counters
	c.MapOutputRecords.Add(t.emitted.records)
	c.MapOutputBytes.Add(t.emitted.keyBytes + t.emitted.valueBytes)
	c.MapOutputKeyBytes.Add(t.emitted.keyBytes)
	c.MapOutputValueBytes.Add(t.emitted.valueBytes)
	if err != nil {
		return fmt.Errorf("mapreduce: map task %d: %w", t.id, err)
	}
	if t.ctx.Canceled() {
		return ErrAttemptCanceled
	}
	if err := t.finalize(); err != nil {
		return err
	}
	// Input scan and final output both travel through the local disk (the
	// locality-aware estimate may later re-route the input bytes).
	t.footprint.DiskBytes += t.ctx.inputBytes
	return nil
}

// releaseParts returns the collecting buffer set to the pool.
func (t *mapTask) releaseParts() {
	if t.parts != nil {
		putPartBuffers(t.parts)
		t.parts = nil
	}
}

// emit is the mapper-facing output path (step 2 of Fig. 1). Once the
// attempt is canceled it stops accepting records: a discarded attempt must
// not keep buffering and spilling.
func (t *mapTask) emit(key, value []byte) {
	if t.ctx.Canceled() {
		return
	}
	t.emitted.records++
	t.emitted.keyBytes += int64(len(key))
	t.emitted.valueBytes += int64(len(value))

	if t.job.PartitionSplit != nil {
		t.routed = t.job.PartitionSplit(t.routed[:0], key, value, t.job.NumReducers)
		if len(t.routed) > 1 {
			t.ctx.counters.PartitionKeySplits.Add(int64(len(t.routed) - 1))
		}
		for _, r := range t.routed {
			t.buffer(r.Partition, r.Key, r.Value)
		}
		return
	}
	t.buffer(t.job.Partition(key, t.job.NumReducers), key, value)
}

func (t *mapTask) buffer(part int, key, value []byte) {
	if part < 0 || part >= t.job.NumReducers {
		panic(fmt.Sprintf("mapreduce: partition %d out of [0,%d)", part, t.job.NumReducers))
	}
	// Copy: mappers legitimately reuse their serialization buffers.
	pb := &t.parts.bufs[part]
	pb.refs = append(pb.refs, newKVRef(len(pb.arena), len(key), len(value)))
	pb.arena = append(append(pb.arena, key...), value...)
	// Only key and value bytes count toward the limit, so spill boundaries
	// (and with them a combining job's bytes) do not depend on the layout.
	t.buffered += len(key) + len(value)
	if t.buffered >= t.job.spillLimit() {
		// Spill failures (like combiner merge errors) surface at finalize.
		t.spill()
	}
}

// spill empties the filled partition buffers. With a spill worker running,
// or a spare token to start one on, the set goes to the worker and a fresh
// set is installed; the one-slot queue means a second spill while one is in
// flight blocks, so the pipeline never holds more than one collecting, one
// queued, and one in-flight set. Without a spare token the attempt spills in
// place and keeps collecting into the same set.
func (t *mapTask) spill() {
	t.buffered = 0
	if t.spillCh == nil && cpu.tryAcquire() {
		t.spillCh = make(chan *partSet, 1)
		t.spillDone = make(chan struct{})
		go t.spillWorker()
	}
	if t.spillCh == nil {
		if t.spillErr == nil {
			t.spillErr = t.spillParts(t.parts, codec.None)
		}
		for p := range t.parts.bufs {
			t.parts.bufs[p].reset()
		}
		return
	}
	set := t.parts
	t.parts = getPartBuffers(t.job.NumReducers)
	t.spillCh <- set
}

// spillWorker drains queued spills in FIFO order, holding its token until
// the queue closes. The first error is sticky — later spills are skipped
// (their buffers still recycled) and the error is reported by drainSpills.
func (t *mapTask) spillWorker() {
	defer close(t.spillDone)
	defer cpu.release()
	for set := range t.spillCh {
		if t.spillErr == nil {
			// Another spill may follow, so this one stays raw.
			t.spillErr = t.spillParts(set, codec.None)
		}
		putPartBuffers(set)
	}
}

// drainSpills shuts down the spill pipeline (idempotently) and returns the
// sticky spill error. After it returns, spills, spillErr and spillBytes are
// safe to read from the caller's goroutine.
func (t *mapTask) drainSpills() error {
	if t.spillCh != nil {
		if !t.spillClosed {
			t.spillClosed = true
			close(t.spillCh)
		}
		<-t.spillDone
	}
	return t.spillErr
}

// spillParts sorts, combines and writes each partition buffer of set as a
// segment (steps 2-3 of Fig. 1) through out: codec.None for spills that
// finalize merges and codes, the job's codec for a task's only spill. The
// sort (Job.sortPartition) moves 12-byte refs. With a MapCombiner the sorted
// buffer streams through combineStream on its way into the segment writer,
// so runs of equal keys fold without an intermediate slice; SpilledRecords
// counts what the segment holds, i.e. post-fold records. On the spill
// worker goroutine everything it touches is either worker-owned until
// drainSpills (spills, spillBytes) or concurrency-safe (counters, the
// buffer pools).
func (t *mapTask) spillParts(set *partSet, out codec.Codec) error {
	sp := t.tracer.Start(obs.CatPhase, "spill", t.span, t.id, t.attempt)
	defer sp.End()
	c := t.ctx.counters
	cmp := t.job.Compare
	for p := range set.bufs {
		pb := &set.bufs[p]
		if len(pb.refs) == 0 {
			continue
		}
		t.job.sortPartition(pb, &set.words)
		cs := t.tracer.Start(obs.CatPhase, "codec", sp.ID(), t.id, t.attempt)
		var src kvStream = &refStream{pb: pb}
		var fold *combineStream
		if m := t.job.MapCombiner; m != nil {
			fold = &combineStream{src: src, cmp: cmp, m: m}
			src = fold
		}
		seg, err := writeSegmentStream(src, out, pb.sizeBound())
		if fold != nil {
			c.CombineInputRecords.Add(fold.inRecords)
			c.CombineOutputRecords.Add(fold.outRecords)
		}
		cs.End()
		if err != nil {
			return err
		}
		c.SpilledRecords.Add(seg.records)
		t.spillBytes += int64(len(seg.data))
		t.spills[p] = append(t.spills[p], seg)
	}
	return nil
}

// finalize flushes the last buffer, drains the spill pipeline, and merges
// each partition's spills into one segment — side by side across
// partitions on spare tokens, since they share nothing — producing the
// task's final map output, tagged with this attempt's provenance. Spills are
// raw, so the pass that writes the final segment is the one place the job's
// codec runs, also over a partition that got a single raw spill; a task
// whose only spill is the tail flushed here writes it coded and skips the
// merge. Every published segment is an exact-size copy: it lives until the
// job ends, and the pooled buffer it was written into goes back to the
// pool. Raw spill bytes and raw merge reads are the local-disk price,
// charged to the footprint. Segment-site fault rules bit-flip the
// materialized bytes here — silently, exactly like at-rest disk corruption:
// the counters record the intact size and nothing notices until a reducer's
// CRC check.
func (t *mapTask) finalize() error {
	// spilled is the codec the spills were written with, final the one the
	// published segments carry.
	spilled, final := codec.None, t.job.codec()
	tail := false
	for p := range t.parts.bufs {
		if len(t.parts.bufs[p].refs) > 0 {
			tail = true
			break
		}
	}
	if tail && t.spillCh != nil {
		// A worker is running: route the tail through it to keep spill
		// order.
		t.spillCh <- t.parts
		t.parts = nil
	}
	if err := t.drainSpills(); err != nil {
		return err
	}
	if tail && t.spillCh == nil {
		if t.spillBytes == 0 {
			spilled = final // no earlier spill: the tail is the only one
		}
		if err := t.spillParts(t.parts, spilled); err != nil {
			return err
		}
	}
	t.releaseParts()
	t.footprint.DiskBytes += t.spillBytes
	t.spillBytes = 0

	ms := t.tracer.Start(obs.CatPhase, "merge", t.span, t.id, t.attempt)
	defer ms.End()
	c := t.ctx.counters
	env := readEnv{codec: spilled, part: -1}
	t.finals = make([]segment, t.job.NumReducers)
	diskDelta := make([]int64, t.job.NumReducers)
	merr := make([]error, t.job.NumReducers)
	var wg sync.WaitGroup
	for p := range t.spills {
		segs := t.spills[p]
		switch {
		case len(segs) == 0:
			// empty partition: no segment
		case len(segs) == 1 && spilled == final:
			t.finals[p] = segs[0]
		default:
			// Multi-pass merge down to a single final segment. Hadoop
			// counts records written during merge passes as spilled
			// records too — the pass that re-encodes a lone raw spill
			// included.
			cpu.fork(&wg, func() {
				merged, err := mergeDown(segs, env, t.job.order(),
					t.job.mergeFactor(), 1, final, func(read, written, records int64) {
						diskDelta[p] += read + written
						c.SpilledRecords.Add(records)
					})
				if err != nil {
					merr[p] = err
					return
				}
				t.finals[p] = merged[0]
			})
		}
	}
	wg.Wait()
	for _, err := range merr {
		if err != nil {
			return err
		}
	}
	for p := range t.finals {
		f := &t.finals[p]
		if cap(f.data) != len(f.data) {
			pooled := f.data
			f.data = make([]byte, len(pooled))
			copy(f.data, pooled)
			bufpool.Put(pooled)
		}
		t.footprint.DiskBytes += diskDelta[p]
		c.MapOutputMaterializedBytes.Add(int64(len(f.data)))
		f.src = t.id
		f.attempt = t.attempt
		if data, ok := t.job.Faults.CorruptSegment(t.id, p, t.attempt, f.data); ok {
			f.data = data
		}
	}
	t.spills = nil
	return nil
}

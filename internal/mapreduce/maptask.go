package mapreduce

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"scikey/internal/bufpool"
	"scikey/internal/cluster"
	"scikey/internal/codec"
	"scikey/internal/faults"
	"scikey/internal/obs"
)

// mapTask executes one attempt of a mapper: collect, partition (splitting
// aggregate keys when configured), sort, combine, spill, and merge spills
// into one final segment per partition. Each attempt owns its buffers and
// counters, so concurrent attempts of the same task (retries racing
// speculative twins) never share state; the scheduler commits exactly one.
//
// Spilling is pipelined: when the collection buffer fills, the filled
// partition buffers are swapped out and handed to a single background
// worker that sorts, combines and writes them as raw IFile runs while the
// mapper keeps collecting the next spill's records. One worker draining a
// one-slot queue keeps spill segments in exactly the order a synchronous
// spill would produce (the output bytes are identical) and bounds the
// attempt at roughly three spill buffers of memory.
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

	parts    []partBuffer
	buffered int
	spills   [][]segment // per partition; owned by the spill worker until drained

	// Spill pipeline state. spillErr and spillBytes are written only by the
	// worker goroutine and read only after drainSpills observes spillDone.
	spillCh     chan []partBuffer
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

// partBuffer collects one partition's records. Key/value copies
// bump-allocate into the arena, so steady-state collection costs no
// per-record heap allocations.
type partBuffer struct {
	pairs []KV
	arena kvArena
	bytes int
}

// partBufferPool recycles whole partition-buffer sets (including each
// buffer's pairs slice and arena storage) between spills and attempts.
var partBufferPool sync.Pool

func getPartBuffers(n int) []partBuffer {
	if v := partBufferPool.Get(); v != nil {
		if parts := *(v.(*[]partBuffer)); len(parts) == n {
			return parts
		}
	}
	return make([]partBuffer, n)
}

func putPartBuffers(parts []partBuffer) {
	for i := range parts {
		pb := &parts[i]
		clear(pb.pairs) // drop record references so the pool pins no arenas
		pb.pairs = pb.pairs[:0]
		pb.arena.reset()
		pb.bytes = 0
	}
	v := new([]partBuffer)
	*v = parts
	partBufferPool.Put(v)
}

func newMapTask(job *Job, id, attempt int, canceled func() bool) *mapTask {
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
			canceled: canceled,
		},
		parts:  getPartBuffers(job.NumReducers),
		spills: make([][]segment, job.NumReducers),
	}
}

// counters returns this attempt's private counters, merged into the job
// totals only if the attempt commits.
func (t *mapTask) counters() *Counters { return t.ctx.counters }

func (t *mapTask) run(split Split) error {
	start := time.Now()
	// Charge elapsed compute on every exit so failed attempts still show
	// up as wasted work in the cost model.
	defer func() {
		t.footprint.CPUSeconds += time.Since(start).Seconds()
		t.wallSeconds = time.Since(start).Seconds()
	}()
	// Never leave the spill worker running, whatever exit path is taken.
	defer t.drainSpills()
	t.hosts = split.Hosts
	if err := t.job.Faults.Attempt(faults.SiteMap, t.id, t.attempt); err != nil {
		return fmt.Errorf("mapreduce: map task %d: %w", t.id, err)
	}
	mapper := t.job.NewMapper()
	sp := t.tracer.Start(obs.CatPhase, "map", t.span, t.id, t.attempt)
	err := mapper.Map(t.ctx, split, t.emit)
	sp.End()
	if err != nil {
		return fmt.Errorf("mapreduce: map task %d: %w", t.id, err)
	}
	if t.ctx.Canceled() {
		return errAttemptCanceled
	}
	if err := t.finalize(); err != nil {
		return err
	}
	// Input scan and final output both travel through the local disk (the
	// locality-aware estimate may later re-route the input bytes).
	t.footprint.DiskBytes += t.ctx.inputBytes
	return nil
}

// emit is the mapper-facing output path (step 2 of Fig. 1). Once the
// attempt is canceled it stops accepting records: a discarded attempt must
// not keep buffering and spilling.
func (t *mapTask) emit(key, value []byte) {
	if t.ctx.Canceled() {
		return
	}
	c := t.ctx.counters
	c.MapOutputRecords.Add(1)
	c.MapOutputBytes.Add(int64(len(key) + len(value)))
	c.MapOutputKeyBytes.Add(int64(len(key)))
	c.MapOutputValueBytes.Add(int64(len(value)))

	if t.job.PartitionSplit != nil {
		routed := t.job.PartitionSplit(key, value, t.job.NumReducers)
		if len(routed) > 1 {
			c.PartitionKeySplits.Add(int64(len(routed) - 1))
		}
		for _, r := range routed {
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
	pb := &t.parts[part]
	kv := KV{Key: pb.arena.copy(key), Value: pb.arena.copy(value)}
	pb.pairs = append(pb.pairs, kv)
	pb.bytes += len(kv.Key) + len(kv.Value)
	t.buffered += len(kv.Key) + len(kv.Value)
	if t.buffered >= t.job.spillLimit() {
		// Spill failures (like combiner merge errors) surface at finalize.
		t.enqueueSpill()
	}
}

// enqueueSpill hands the filled partition buffers to the spill worker and
// installs fresh ones. The one-slot queue means a second enqueue while a
// spill is in flight blocks — the pipeline never holds more than one
// collecting, one queued, and one in-flight buffer set.
func (t *mapTask) enqueueSpill() {
	if t.spillCh == nil {
		t.spillCh = make(chan []partBuffer, 1)
		t.spillDone = make(chan struct{})
		go t.spillWorker()
	}
	parts := t.parts
	t.parts = getPartBuffers(t.job.NumReducers)
	t.buffered = 0
	t.spillCh <- parts
}

// spillWorker drains queued spills in FIFO order. The first error is sticky
// — later spills are skipped (their buffers still recycled) and the error
// is reported by drainSpills.
func (t *mapTask) spillWorker() {
	defer close(t.spillDone)
	for parts := range t.spillCh {
		if t.spillErr == nil {
			// Another spill may follow, so this one stays raw.
			if err := t.spillParts(parts, codec.None); err != nil {
				t.spillErr = err
			}
		}
		putPartBuffers(parts)
	}
}

// drainSpills shuts down the spill pipeline (idempotently) and returns its
// sticky error. After it returns, spills, spillErr and spillBytes are safe
// to read from the caller's goroutine.
func (t *mapTask) drainSpills() error {
	if t.spillCh == nil {
		return nil
	}
	if !t.spillClosed {
		t.spillClosed = true
		close(t.spillCh)
	}
	<-t.spillDone
	return t.spillErr
}

// spillParts sorts, combines and writes each partition buffer as a segment
// (steps 2-3 of Fig. 1) through out: codec.None from the spill worker, whose
// runs finalize merges and codes, the job's codec for a task's only spill.
// With a MapCombiner the sorted buffer streams through combineStream on its
// way into the segment writer, so runs of equal keys fold without an
// intermediate slice; SpilledRecords counts what the segment holds, i.e.
// post-fold records. On the spill worker goroutine everything it touches is
// either worker-owned until drainSpills (spills, spillBytes) or
// concurrency-safe (counters, the buffer pools).
func (t *mapTask) spillParts(parts []partBuffer, out codec.Codec) error {
	sp := t.tracer.Start(obs.CatPhase, "spill", t.span, t.id, t.attempt)
	defer sp.End()
	c := t.ctx.counters
	cmp := t.job.Compare
	for p := range parts {
		pb := &parts[p]
		if len(pb.pairs) == 0 {
			continue
		}
		slices.SortStableFunc(pb.pairs, func(a, b KV) int { return cmp(a.Key, b.Key) })
		cs := t.tracer.Start(obs.CatPhase, "codec", sp.ID(), t.id, t.attempt)
		var seg segment
		var err error
		if m := t.job.MapCombiner; m != nil {
			fold := &combineStream{src: &sliceStream{pairs: pb.pairs}, cmp: t.job.Compare, m: m}
			seg, err = writeSegmentStream(fold, out, segmentSizeBound(pb.pairs))
			c.CombineInputRecords.Add(fold.inRecords)
			c.CombineOutputRecords.Add(fold.outRecords)
		} else {
			seg, err = writeSegment(pb.pairs, out)
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
// each partition's spills into one segment — concurrently across partitions,
// since they share nothing — producing the task's final map output, tagged
// with this attempt's provenance. The worker's spills are raw, so the pass
// that writes the final segment is the one place the job's codec runs, also
// over a partition that got a single raw spill; a task whose only spill is
// the tail flushed here wrote it coded and skips the merge. Raw spill bytes
// and raw merge reads are the local-disk price, charged to the footprint.
// Segment-site fault rules bit-flip the materialized bytes here — silently,
// exactly like at-rest disk corruption: the counters record the intact size
// and nothing notices until a reducer's CRC check.
func (t *mapTask) finalize() error {
	// spilled is the codec the spills were written with, final the one the
	// published segments carry.
	spilled, final := codec.None, t.job.codec()
	tail := false
	for p := range t.parts {
		if len(t.parts[p].pairs) > 0 {
			tail = true
			break
		}
	}
	if t.spillCh != nil {
		// A worker is running: route the tail through it to keep spill
		// order, then wait it out.
		if tail {
			t.enqueueSpill()
		}
		if err := t.drainSpills(); err != nil {
			return err
		}
	} else if tail {
		spilled = final
		if err := t.spillParts(t.parts, final); err != nil {
			return err
		}
		putPartBuffers(t.parts)
		t.parts = nil
	}
	t.footprint.DiskBytes += t.spillBytes
	t.spillBytes = 0

	ms := t.tracer.Start(obs.CatPhase, "merge", t.span, t.id, t.attempt)
	defer ms.End()
	c := t.ctx.counters
	env := readEnv{codec: spilled, part: -1}
	t.finals = make([]segment, t.job.NumReducers)
	diskDelta := make([]int64, t.job.NumReducers)
	merr := make([]error, t.job.NumReducers)
	sem := make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))
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
			wg.Add(1)
			sem <- struct{}{}
			go func(p int, segs []segment) {
				defer wg.Done()
				defer func() { <-sem }()
				merged, err := mergeDown(segs, env, t.job.Compare,
					t.job.mergeFactor(), 1, final, func(read, written, records int64) {
						diskDelta[p] += read + written
						c.SpilledRecords.Add(records)
					})
				if err != nil {
					merr[p] = err
					return
				}
				t.finals[p] = merged[0]
				if spilled != final {
					// The coded pass seeded its pooled buffer with the raw
					// input size and a final output is never recycled: keep
					// an exact-size copy and hand the buffer back.
					t.finals[p].data = bytes.Clone(merged[0].data)
					bufpool.Put(merged[0].data)
				}
			}(p, segs)
		}
	}
	wg.Wait()
	for _, err := range merr {
		if err != nil {
			return err
		}
	}
	for p := range t.finals {
		t.footprint.DiskBytes += diskDelta[p]
		c.MapOutputMaterializedBytes.Add(int64(len(t.finals[p].data)))
		t.finals[p].src = t.id
		t.finals[p].attempt = t.attempt
		if data, ok := t.job.Faults.CorruptSegment(t.id, p, t.attempt, t.finals[p].data); ok {
			t.finals[p].data = data
		}
	}
	t.spills = nil
	return nil
}

package mapreduce

import (
	"context"
	"fmt"
	"time"

	"scikey/internal/cluster"
	"scikey/internal/faults"
	"scikey/internal/ifile"
	"scikey/internal/obs"
)

// reduceTask executes one attempt of a reducer: fetch its partition's
// segments from every map output, merge-sort them (verifying IFile CRCs
// along the way), apply the SciHadoop merge transform (overlap splitting),
// group, reduce, and write output to HDFS (steps 4-7 of Fig. 1).
//
// Output lands in an attempt-private temp file; the scheduler renames it to
// the final part path only for the winning attempt (Hadoop's output
// committer), so retries and speculative twins never collide.
type reduceTask struct {
	job       *Job
	id        int
	attempt   int
	ctx       *TaskContext
	footprint cluster.Task
	tmpPath   string
	outPath   string

	// remote marks an attempt executed in a worker process: its output
	// arrived as bytes (remoteData) instead of a local temp file, and commit
	// materializes them at the final path directly.
	remote     bool
	remoteData []byte

	// tracer/span parent this attempt's phase spans (zero when the job has
	// no Observer); wallSeconds is the attempt's wall-clock duration, a
	// cost-model calibration sample if the attempt wins.
	tracer      *obs.Tracer
	span        obs.SpanID
	wallSeconds float64
}

// newReduceTask prepares one attempt of reduce task id; canceling ctx stops
// it.
func newReduceTask(ctx context.Context, job *Job, id, attempt int) *reduceTask {
	return &reduceTask{
		job:     job,
		id:      id,
		attempt: attempt,
		ctx: &TaskContext{
			TaskID:   id,
			Attempt:  attempt,
			IsMap:    false,
			FS:       job.FS,
			counters: &Counters{},
			done:     ctx.Done(),
		},
		tmpPath: fmt.Sprintf("%s/_attempt/part-%05d-%d", job.OutputPath, id, attempt),
		outPath: fmt.Sprintf("%s/part-%05d", job.OutputPath, id),
	}
}

// counters returns this attempt's private counters, merged into the job
// totals only if the attempt commits.
func (t *reduceTask) counters() *Counters { return t.ctx.counters }

// commit promotes this attempt's temp output to the final part path. A
// remote attempt's bytes came back over the wire; they land at the final
// path in one write, the coordinator-side half of the output committer.
func (t *reduceTask) commit() error {
	if t.remote {
		return t.job.FS.WriteFile(t.outPath, t.remoteData)
	}
	return t.job.FS.Rename(t.tmpPath, t.outPath)
}

// abort discards this attempt's temp output, if any was materialized.
// Remote attempts have no coordinator-side temp file.
func (t *reduceTask) abort() {
	if t.remote {
		return
	}
	_ = t.job.FS.Delete(t.tmpPath)
}

func (t *reduceTask) run(src segmentSource) (err error) {
	defer containPanic("reduce", t.id, t.attempt, &err)
	if !cpu.acquire(t.ctx.done) {
		return ErrAttemptCanceled
	}
	defer cpu.release()
	// The clock starts once the attempt holds a core; see mapTask.run.
	wallStart := time.Now()
	defer func() { t.wallSeconds = time.Since(wallStart).Seconds() }()
	c := t.ctx.counters
	if err := t.job.Faults.Attempt(faults.SiteReduce, t.id, t.attempt); err != nil {
		return fmt.Errorf("mapreduce: reduce task %d: %w", t.id, err)
	}

	// Shuffle: fetch this partition's final segment from every map. The
	// bytes cross the network and are staged on local disk (write + later
	// read during the merge). Wasted transport bytes — verified data a
	// retried or exhausted fetch had to discard — still crossed the wire,
	// so they join the footprint without touching the payload counters.
	fetchSpan := t.tracer.Start(obs.CatPhase, "fetch", t.span, t.id, t.attempt)
	defer fetchSpan.End() // explicit End below makes this a failure-path no-op
	var segs []segment
	for m := 0; m < src.numMaps(); m++ {
		if t.ctx.Canceled() {
			return ErrAttemptCanceled
		}
		seg, wasted, err := src.fetch(m, t.id)
		t.footprint.NetBytes += wasted
		if err != nil {
			return fmt.Errorf("mapreduce: reduce task %d shuffle: %w", t.id, err)
		}
		if len(seg.data) == 0 {
			continue
		}
		segs = append(segs, seg)
		n := int64(len(seg.data))
		c.ReduceShuffleBytes.Add(n)
		t.footprint.NetBytes += n
		t.footprint.DiskBytes += 2 * n
	}
	fetchSpan.End()

	start := time.Now()
	defer func() {
		t.footprint.CPUSeconds += time.Since(start).Seconds()
	}()
	mergeSpan := t.tracer.Start(obs.CatPhase, "merge", t.span, t.id, t.attempt)
	defer mergeSpan.End()
	env := readEnv{codec: t.job.codec(), inj: t.job.Faults, attempt: t.attempt, part: t.id}
	// Reduce-side multi-pass merge: more fetched segments than the merge
	// factor force extra on-disk passes first — the mechanism by which
	// intermediate-data volume "possibly requir[es] multiple on-disk sort
	// phases" (Fig. 1 step 5) and taxes reducers beyond the shuffle.
	// Reading every fetched segment to its end also verifies its IFile
	// CRC; a mismatch surfaces as an ErrCorruptSegment naming the
	// producing map attempt.
	segs, err = mergeDown(segs, env, t.job.order(),
		t.job.mergeFactor(), t.job.mergeFactor(), env.codec, func(read, written, _ int64) {
			t.footprint.DiskBytes += read + written
		})
	if err != nil {
		return fmt.Errorf("mapreduce: reduce task %d merge pass: %w", t.id, err)
	}
	// The final merge level is a stream: grouping pulls records out of the
	// k-way merge one at a time, so beyond the level's own bytes (fetched
	// segments, or their plaintext on a coded job) peak memory is one record
	// per open segment plus the current group — never a copy of the
	// partition. The merge tallies ReduceInputRecords and a MergeTransform
	// its split surplus as the stream drains; groupReduce pulls from the
	// merge directly, or from the transform stacked on it.
	//
	// Validate the final level's fetched segments before any record can
	// reach the reducer: grouping interleaves with decoding from here on,
	// and user code must never see bytes the trailing CRC would have
	// rejected. On a coded job that scan is the one decode, and the level
	// it hands back is raw.
	level, read, err := validateSegments(segs, env)
	t.footprint.DiskBytes += read
	if err != nil {
		return fmt.Errorf("mapreduce: reduce task %d merge: %w", t.id, err)
	}
	// The level's engine-internal buffers stay alive while the stream reads
	// them; recycle only once it is closed. Fetched map outputs (src >= 0)
	// stay untouched for retries.
	defer func() {
		for _, s := range level {
			recycleSegment(s)
		}
	}()
	ms, err := newMergeStream(level, env, t.job.order())
	if err != nil {
		return fmt.Errorf("mapreduce: reduce task %d merge: %w", t.id, err)
	}
	// A transformStream holds nothing pooled: closing the merge releases
	// every iterator and flushes its tally.
	defer ms.close()
	stream := reduceStream{m: ms}
	if t.job.MergeTransform != nil {
		var cut func(key []byte) bool
		if t.job.MergeCut != nil {
			cut = t.job.MergeCut()
		}
		stream.t = &transformStream{
			src:       ms,
			transform: t.job.MergeTransform,
			cut:       cut,
			splits:    &c.OverlapKeySplits,
		}
	}
	mergeSpan.End()

	w, err := t.job.FS.Create(t.tmpPath)
	if err != nil {
		return err
	}
	// Always materialize the temp file (Close is idempotent) so abort can
	// clean up after a failed or canceled attempt.
	defer w.Close()
	iw := ifile.NewWriter(t.job.Faults.WrapReduceOutput(t.id, t.attempt, w))
	var outBytes int64
	var emitErr error
	emit := func(k, v []byte) {
		if emitErr != nil || t.ctx.Canceled() {
			return
		}
		if err := iw.Append(k, v); err != nil {
			// An output write failure (disk full, injected out-site fault)
			// fails this attempt — the scheduler retries it — instead of
			// panicking the process.
			emitErr = fmt.Errorf("reduce output write: %w", err)
			return
		}
		c.ReduceOutputRecords.Add(1)
		outBytes += int64(len(k) + len(v))
	}
	reduceSpan := t.tracer.Start(obs.CatPhase, "reduce", t.span, t.id, t.attempt)
	defer reduceSpan.End()
	red := t.job.NewReducer()
	bail := func() error { return emitErr }
	if err := groupReduce(t.ctx, stream, t.job.Compare, red, emit, bail); err != nil {
		return fmt.Errorf("mapreduce: reduce task %d: %w", t.id, err)
	}
	if f, ok := red.(Finalizer); ok {
		if err := f.Finish(t.ctx, emit); err != nil {
			return fmt.Errorf("mapreduce: reduce task %d finish: %w", t.id, err)
		}
	}
	if emitErr != nil {
		return fmt.Errorf("mapreduce: reduce task %d: %w", t.id, emitErr)
	}
	if t.ctx.Canceled() {
		return ErrAttemptCanceled
	}
	if err := iw.Close(); err != nil {
		// The writer flushes by the block, so this may be the first a
		// failing destination is heard of: the same failure emit names.
		return fmt.Errorf("mapreduce: reduce task %d: reduce output write: %w", t.id, err)
	}
	if err := w.Close(); err != nil {
		return err
	}
	reduceSpan.End()
	c.ReduceOutputBytes.Add(outBytes)
	t.footprint.DiskBytes += iw.Stats().Total()
	return nil
}

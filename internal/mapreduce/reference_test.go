package mapreduce

import (
	"bytes"
	"container/heap"
	"context"
	"fmt"
	"io"
	"testing"

	"scikey/internal/codec"
	"scikey/internal/ifile"
)

// The materialize-then-group reduce form: the whole partition merged into
// one in-memory slice, MergeTransform applied to it in a single call, then
// grouped. It is the defining form the engine's streaming reduce path must
// reproduce byte for byte; it lives here, in test code, as the oracle the
// differential suite and the peak-memory benchmarks compare against.

// mergeSegments k-way merges sorted segments, coded with env.codec, into
// one sorted in-memory run — the materializing form of mergeStream, over
// refMergeStream. The merge's records are valid only until its next pull,
// so it clones each one it collects.
func mergeSegments(segs []segment, env readEnv, cmp func(a, b []byte) int) ([]KV, error) {
	var total int64
	for _, s := range segs {
		total += s.records
	}
	segs, err := refPlain(segs, env.codec)
	if err != nil {
		return nil, err
	}
	m, err := newRefMergeStream(segs, env, cmp)
	if err != nil {
		return nil, err
	}
	defer m.close()
	out := make([]KV, 0, total)
	for {
		kv, err := m.pull()
		if kv == nil {
			return out, err
		}
		out = append(out, KV{Key: bytes.Clone(kv.Key), Value: bytes.Clone(kv.Value)})
	}
}

// referenceReduce reduces one partition's fetched segments the materialized
// way and returns the output file's bytes; the attempt's counters land in
// ctx. The multi-pass merge down to the merge factor runs first, exactly as
// in a reduce attempt, so equal keys meet in the same order. Every merge in
// it is refMergeStream's.
func referenceReduce(job *Job, ctx *TaskContext, segs []segment) ([]byte, error) {
	c := ctx.counters
	env := readEnv{codec: job.codec(), part: ctx.TaskID}
	segs, err := refMergeDown(segs, env, job.Compare, job.mergeFactor(), job.mergeFactor(), env.codec)
	if err != nil {
		return nil, err
	}
	pairs, err := mergeSegments(segs, env, job.Compare)
	if err != nil {
		return nil, err
	}
	c.ReduceInputRecords.Add(int64(len(pairs)))
	if job.MergeTransform != nil {
		before := len(pairs)
		pairs = job.MergeTransform(pairs)
		if d := len(pairs) - before; d > 0 {
			c.OverlapKeySplits.Add(int64(d))
		}
	}
	var out bytes.Buffer
	iw := ifile.NewWriter(&out)
	var emitErr error
	emit := func(k, v []byte) {
		if err := iw.Append(k, v); err != nil && emitErr == nil {
			emitErr = err
		}
		c.ReduceOutputRecords.Add(1)
		c.ReduceOutputBytes.Add(int64(len(k) + len(v)))
	}
	red := job.NewReducer()
	if err := refGroupReduce(ctx, &sliceStream{pairs: pairs}, job.Compare, red, emit, nil); err != nil {
		return nil, err
	}
	if f, ok := red.(Finalizer); ok {
		if err := f.Finish(ctx, emit); err != nil {
			return nil, err
		}
	}
	if emitErr != nil {
		return nil, emitErr
	}
	if err := iw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// referenceRun is the whole-job oracle: every map task runs once,
// fault-free, through the engine's own map side, and every partition is
// reduced by referenceReduce over every segment, fetched once. It returns
// the per-partition output bytes and the merged payload counters. A run of job under any fault schedule,
// shuffle transport or parallelism must reproduce both exactly — recovery
// leaves no trace in the payload.
func referenceRun(t *testing.T, job *Job) ([]string, *Counters) {
	t.Helper()
	clean := *job
	clean.Faults, clean.Shuffle, clean.Obs = nil, nil, nil
	total := &Counters{}
	finals := make([][]segment, len(clean.Splits))
	for m, split := range clean.Splits {
		mt := newMapTask(context.Background(), &clean, m, 0)
		if err := mt.run(split); err != nil {
			t.Fatalf("reference map task %d: %v", m, err)
		}
		finals[m] = mt.finals
		total.Merge(mt.counters())
	}
	outs := make([]string, clean.NumReducers)
	for p := range outs {
		var segs []segment
		for m := range finals {
			if len(finals[m][p].data) > 0 {
				segs = append(segs, finals[m][p])
				total.ReduceShuffleBytes.Add(int64(len(finals[m][p].data)))
			}
		}
		ctx := &TaskContext{TaskID: p, FS: clean.FS, counters: &Counters{}}
		out, err := referenceReduce(&clean, ctx, segs)
		if err != nil {
			t.Fatalf("reference reduce task %d: %v", p, err)
		}
		outs[p] = string(out)
		total.Merge(ctx.counters)
	}
	return outs, total
}

// The k-way merge as it ran before mergeHeap: container/heap over an
// interface, every comparison a Compare call on the iterators' raw keys. It
// is the order oracle for the engine's merge — the same records, equal keys
// in the same order — kept verbatim apart from its names.

// refMergeHeap orders segment iterators by their current key.
type refMergeHeap struct {
	its []*segIter
	cmp func(a, b []byte) int
}

func (h *refMergeHeap) Len() int { return len(h.its) }

func (h *refMergeHeap) Less(i, j int) bool {
	return h.cmp(h.its[i].cur.Key, h.its[j].cur.Key) < 0
}

func (h *refMergeHeap) Swap(i, j int) { h.its[i], h.its[j] = h.its[j], h.its[i] }

func (h *refMergeHeap) Push(x any) { h.its = append(h.its, x.(*segIter)) }

func (h *refMergeHeap) Pop() any {
	old := h.its
	n := len(old)
	it := old[n-1]
	h.its = old[:n-1]
	return it
}

// refMergeStream is the pull-based k-way merge over sorted segments.
type refMergeStream struct {
	h refMergeHeap
	// pending marks that the heap head's cur was handed out by the last
	// pull and the iterator must advance before the next record is
	// chosen — deferred so the caller can use the record first.
	pending bool
	closed  bool
}

// refPlain returns segs as raw segments: segs itself when c is raw, and
// otherwise copies holding each segment's codec stream drained through a
// fresh reader of c.
func refPlain(segs []segment, c codec.Codec) ([]segment, error) {
	if c == codec.None {
		return segs, nil
	}
	plain := make([]segment, len(segs))
	for i, s := range segs {
		plain[i] = s
		if len(s.data) == 0 {
			continue
		}
		rc, err := c.NewReader(bytes.NewReader(s.data))
		if err != nil {
			return nil, err
		}
		plain[i].data, err = io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, err
		}
	}
	return plain, nil
}

// newRefMergeStream opens every raw segment and primes the heap. On error all
// already-opened iterators are released back to their pools.
func newRefMergeStream(segs []segment, env readEnv, cmp func(a, b []byte) int) (*refMergeStream, error) {
	m := &refMergeStream{h: refMergeHeap{cmp: cmp}}
	for _, s := range segs {
		if len(s.data) == 0 {
			continue
		}
		it, err := openSegment(s, env)
		if err != nil {
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
	heap.Init(&m.h)
	return m, nil
}

func (m *refMergeStream) pull() (*KV, error) {
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
			heap.Fix(&m.h, 0)
		} else {
			heap.Pop(&m.h).(*segIter).release()
		}
	}
	if len(m.h.its) == 0 {
		return nil, nil
	}
	m.pending = true
	return &m.h.its[0].cur, nil
}

func (m *refMergeStream) close() {
	if m.closed {
		return
	}
	m.closed = true
	for _, it := range m.h.its {
		it.release()
	}
	m.h.its = nil
	m.pending = false
}

// refMergeDown is mergeDown's pass loop over refMergeStream: the same
// batches, smallest segments first, coded the same way, each decoded by
// refPlain before it is merged.
func refMergeDown(segs []segment, env readEnv, cmp func(a, b []byte) int, factor, target int, last codec.Codec) ([]segment, error) {
	factor, target = max(factor, 2), max(target, 1)
	coded := last == env.codec
	for len(segs) > target || !coded {
		n := min(factor, len(segs))
		out := env.codec
		if len(segs)-n+1 <= target {
			out, coded = last, true
		}
		sortSegmentsBySize(segs)
		batch := segs[:n]
		var read int64
		for _, s := range batch {
			read += int64(len(s.data))
		}
		plain, err := refPlain(batch, env.codec)
		if err != nil {
			return nil, err
		}
		m, err := newRefMergeStream(plain, env, cmp)
		if err != nil {
			return nil, err
		}
		merged, err := writeSegmentStream(m, out, int(read)+ifile.TrailerLen)
		m.close()
		if err != nil {
			return nil, err
		}
		for _, s := range batch {
			recycleSegment(s)
		}
		segs = append([]segment{merged}, segs[n:]...)
	}
	return segs, nil
}

// The grouping loop as it ran before it grouped by the merge's words: over
// any kvStream, every group boundary a cmp call, each group tallied with an
// atomic add as it is reduced. It is the grouping oracle — referenceReduce
// groups with it, and TestGroupReduceByWordsMatchesReference and
// FuzzGroupReduceByWords hold groupReduce to it over refMergeStream — kept
// verbatim apart from its name.

// refGroupReduce walks a sorted record stream, invoking red once per group
// of equal keys (per cmp). Each record is landed in a group-owned arena the
// moment it arrives; two arenas ping-pong, the current group's in one while
// a group boundary copies the next group's first record into the other.
func refGroupReduce(ctx *TaskContext, src kvStream, cmp func(a, b []byte) int, red Reducer, emit Emit, bail func() error) error {
	ga, gb := &kvArena{}, &kvArena{} // current group arena, boundary arena
	var values [][]byte
	var cur KV
	first, err := src.pull()
	if err != nil {
		return err
	}
	ok := first != nil
	if ok {
		cur = KV{Key: ga.copy(first.Key), Value: ga.copy(first.Value)}
	}
	for ok {
		if ctx.Canceled() {
			return ErrAttemptCanceled
		}
		if bail != nil {
			if err := bail(); err != nil {
				return err
			}
		}
		key := cur.Key
		values = append(values[:0], cur.Value)
		ok = false
		for {
			nxt, err := src.pull()
			if err != nil {
				return err
			}
			if nxt == nil {
				break
			}
			if cmp(key, nxt.Key) != 0 {
				gb.reset()
				cur, ok = KV{Key: gb.copy(nxt.Key), Value: gb.copy(nxt.Value)}, true
				break
			}
			values = append(values, ga.copy(nxt.Value))
		}
		ctx.counters.ReduceInputGroups.Add(1)
		if err := red.Reduce(ctx, key, values, emit); err != nil {
			return err
		}
		// The finished group's arena becomes the next boundary scratch; the
		// next group's first record already lives in the other one.
		ga, gb = gb, ga
	}
	return nil
}

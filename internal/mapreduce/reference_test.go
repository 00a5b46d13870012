package mapreduce

import (
	"bytes"
	"context"
	"testing"

	"scikey/internal/ifile"
)

// The materialize-then-group reduce form: the whole partition merged into
// one in-memory slice, MergeTransform applied to it in a single call, then
// grouped. It is the defining form the engine's streaming reduce path must
// reproduce byte for byte; it lives here, in test code, as the oracle the
// differential suite and the peak-memory benchmarks compare against.

// mergeSegments k-way merges sorted segments into one sorted in-memory run —
// the materializing form of mergeStream. The merge's records are valid only
// until its next pull, so it clones each one it collects.
func mergeSegments(segs []segment, env readEnv, cmp func(a, b []byte) int) ([]KV, error) {
	var total int64
	for _, s := range segs {
		total += s.records
	}
	m, err := newMergeStream(segs, env, cmp)
	if err != nil {
		return nil, err
	}
	defer m.close()
	out := make([]KV, 0, total)
	for {
		kv, ok, err := m.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, KV{Key: bytes.Clone(kv.Key), Value: bytes.Clone(kv.Value)})
	}
}

// referenceReduce reduces one partition's fetched segments the materialized
// way and returns the output file's bytes; the attempt's counters land in
// ctx. The multi-pass merge down to the merge factor runs first, exactly as
// in a reduce attempt, so equal keys meet in the same order.
func referenceReduce(job *Job, ctx *TaskContext, segs []segment) ([]byte, error) {
	c := ctx.counters
	env := readEnv{codec: job.codec(), part: ctx.TaskID}
	segs, err := mergeDown(segs, env, job.Compare, job.mergeFactor(), job.mergeFactor(), env.codec, nil)
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
	if err := groupReduce(ctx, &sliceStream{pairs: pairs}, job.Compare, red, emit, nil); err != nil {
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
// reduced by referenceReduce. It returns the per-partition output bytes and
// the merged payload counters. A run of job under any fault schedule,
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

package main

import (
	"compress/zlib"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"scikey/internal/codec"
	"scikey/internal/mapreduce"
	"scikey/internal/obs"
	"scikey/internal/store"
)

// The per-layer numbers come from two sources, both outside the program:
// timing decorators this file wraps around the seams the public API exposes
// (Job.NewMapper, Job.NewReducer, Job.MergeTransform, Job.MapOutputCodec,
// Job.Remote, store.Store), and the phase spans internal/obs records when a
// job is handed an Observer. ledger.go joins the two.

// writeSampleEvery is how often a codec writer times one Write. The IFile
// writer issues three tiny writes per record (1.8M per transform query at
// side 256), so timing each would cost more than the predictor does; one in
// eight keeps the traced run within a few percent of the untraced one. It is
// coprime with the three-call header/key/value cycle, so every call kind is
// sampled equally. The two codec levels sample different calls (phase 0 and
// writeSampleEvery/2), so neither measurement contains the other's clock
// reads and outer minus inner is the predictor alone.
const writeSampleEvery = 8

// captureLimit bounds the raw segment bytes kept for the kernel probes.
const captureLimit = 1 << 20

// clockCost is what one time.Since costs on this host, in nanoseconds. A
// timed interval contains about one clock read, so it is subtracted from
// every sample; without it the 100-ns-scale emit and write calls would read
// a third too long.
var clockCost = func() int64 {
	const n = 4096
	t0 := time.Now()
	var sink time.Duration
	for i := 0; i < n; i++ {
		sink += time.Since(t0)
	}
	_ = sink
	return int64(time.Since(t0)) / n
}()

// recorder holds one traced query's decorator timings and the Observer the
// engine records its phase spans into. All durations are nanoseconds.
type recorder struct {
	obs *obs.Observer
	// epoch is read beside obs.New, so offsets from it line up with the
	// tracer's span Start values to within a microsecond.
	epoch time.Time
	// since marks where the current query begins on that timeline; a
	// recorder bound to a long-lived service sees earlier queries' spans too.
	since time.Duration
	base  map[string]int64 // registry values when the query began

	datasetSetup atomic.Int64

	mapTotal, mapEmit, mapEmits atomic.Int64
	redTotal, redEmit, redEmits atomic.Int64
	redCalls, mergeTransform    atomic.Int64
	runRemote, publish          atomic.Int64
	workerExec                  atomic.Int64
	putNs, putBytes             atomic.Int64
	getNs, getBytes             atomic.Int64
	statCalls, statNs           atomic.Int64
	codecBytesIn, codecBytesOut atomic.Int64
	mergeCalls, remoteCalls     atomic.Int64
	captureDone                 atomic.Bool
	mu                          sync.Mutex
	streams                     []writeStream
	reads                       [2][]readCall
	capture                     []byte
	wantCapture                 bool
}

// writeStream is one codec writer's life, from NewWriter or Reset to Close.
type writeStream struct {
	level      int
	start, end int64
	busy       int64 // estimated time inside the wrapped writer
}

// readCall is one Read on a codec reader.
type readCall struct{ start, dur int64 }

func newRecorder() *recorder {
	return &recorder{obs: obs.New(), epoch: time.Now()}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin starts a new query on a recorder that outlives one query.
func (r *recorder) begin() {
	r.since = time.Since(r.epoch)
	r.base = registryValues(r.obs.R())
	for _, c := range []*atomic.Int64{
		&r.datasetSetup, &r.mapTotal, &r.mapEmit, &r.mapEmits, &r.redTotal, &r.redEmit,
		&r.redEmits, &r.redCalls, &r.mergeTransform, &r.runRemote, &r.publish, &r.workerExec,
		&r.putNs, &r.putBytes, &r.getNs, &r.getBytes, &r.statCalls, &r.statNs,
		&r.codecBytesIn, &r.codecBytesOut,
	} {
		c.Store(0)
	}
	r.mu.Lock()
	r.streams, r.reads = nil, [2][]readCall{}
	r.mu.Unlock()
}

// registryValues flattens a registry's counters and gauges into a map keyed
// by series name, with "/<label value>" appended per label.
func registryValues(reg *obs.Registry) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range reg.Snapshot() {
		key := s.Name
		for _, l := range s.Labels {
			key += "/" + l.Value
		}
		out[key] = s.Value
	}
	return out
}

// counts returns what the registry's series gained since begin.
func (r *recorder) counts() map[string]int64 {
	out := registryValues(r.obs.R())
	for k, v := range r.base {
		out[k] -= v
	}
	return out
}

// instrument wraps every seam of a built job. The job's bytes are unchanged:
// each decorator forwards its arguments untouched.
func (r *recorder) instrument(job *mapreduce.Job) {
	newMapper := job.NewMapper
	job.NewMapper = func() mapreduce.Mapper { return &timedMapper{inner: newMapper(), rec: r} }
	newReducer := job.NewReducer
	job.NewReducer = func() mapreduce.Reducer { return &timedReducer{inner: newReducer(), rec: r} }
	if mt := job.MergeTransform; mt != nil {
		job.MergeTransform = func(pairs []mapreduce.KV) []mapreduce.KV {
			t0 := r.now()
			out := mt(pairs)
			r.mergeTransform.Add(r.now() - t0 - clockCost)
			return out
		}
	}
	// The transform stack is rebuilt as timed(transform(timed(entropy))), so
	// the outer time minus the inner time is the predictor's.
	if t, ok := job.MapOutputCodec.(*codec.Transform); ok {
		inner := &timedCodec{Codec: t.Inner, rec: r, level: 1}
		job.MapOutputCodec = &timedCodec{
			Codec: &codec.Transform{Inner: inner, Cfg: t.Cfg, StatsFunc: t.StatsFunc},
			rec:   r,
		}
	}
	if job.Remote != nil {
		job.Remote = &timedRemote{inner: job.Remote, rec: r}
	}
}

// timedMapper splits a map task's time into the map function proper and the
// framework's collect path behind emit.
type timedMapper struct {
	inner mapreduce.Mapper
	rec   *recorder
}

func (m *timedMapper) Map(ctx *mapreduce.TaskContext, split mapreduce.Split, emit mapreduce.Emit) error {
	r := m.rec
	var inEmit, emits int64
	t0 := r.now()
	err := m.inner.Map(ctx, split, func(k, v []byte) {
		s := r.now()
		emit(k, v)
		inEmit += r.now() - s
		emits++
	})
	r.mapTotal.Add(r.now() - t0)
	r.mapEmit.Add(inEmit)
	r.mapEmits.Add(emits)
	return err
}

// timedReducer does the same for a reduce task. It always offers Finish, a
// no-op when the wrapped reducer has none, and uses it to publish the
// task's totals.
type timedReducer struct {
	inner                        mapreduce.Reducer
	rec                          *recorder
	total, inEmit, emits, groups int64
}

func (t *timedReducer) timedEmit(emit mapreduce.Emit) mapreduce.Emit {
	return func(k, v []byte) {
		s := t.rec.now()
		emit(k, v)
		t.inEmit += t.rec.now() - s
		t.emits++
	}
}

func (t *timedReducer) Reduce(ctx *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emit) error {
	t0 := t.rec.now()
	err := t.inner.Reduce(ctx, key, values, t.timedEmit(emit))
	t.total += t.rec.now() - t0
	t.groups++
	return err
}

func (t *timedReducer) Finish(ctx *mapreduce.TaskContext, emit mapreduce.Emit) error {
	var err error
	if f, ok := t.inner.(mapreduce.Finalizer); ok {
		t0 := t.rec.now()
		err = f.Finish(ctx, t.timedEmit(emit))
		t.total += t.rec.now() - t0
		t.groups++
	}
	r := t.rec
	r.redTotal.Add(t.total)
	r.redEmit.Add(t.inEmit)
	r.redEmits.Add(t.emits)
	r.redCalls.Add(t.groups)
	return err
}

// timedRemote times the control plane as the driver sees it: the whole
// RunRemote round trip against the seconds the worker says it executed.
type timedRemote struct {
	inner mapreduce.Remote
	rec   *recorder
}

func (t *timedRemote) RunRemote(phase string, task, attempt int, canceled func() bool) (*mapreduce.RemoteResult, error) {
	t0 := t.rec.now()
	rr, err := t.inner.RunRemote(phase, task, attempt, canceled)
	t.rec.runRemote.Add(t.rec.now() - t0)
	if rr != nil {
		t.rec.workerExec.Add(int64(rr.WallSeconds * 1e9))
	}
	return rr, err
}

func (t *timedRemote) PublishRemote(mapTask, attempt int, parts [][]byte) {
	t0 := t.rec.now()
	t.inner.PublishRemote(mapTask, attempt, parts)
	t.rec.publish.Add(t.rec.now() - t0)
}

// timedStore times the segment cache's backend.
type timedStore struct {
	store.Store
	rec *recorder
}

func (s *timedStore) Put(key string, data []byte) error {
	t0 := s.rec.now()
	err := s.Store.Put(key, data)
	s.rec.putNs.Add(s.rec.now() - t0)
	s.rec.putBytes.Add(int64(len(data)))
	return err
}

func (s *timedStore) Get(key string) ([]byte, error) {
	t0 := s.rec.now()
	data, err := s.Store.Get(key)
	s.rec.getNs.Add(s.rec.now() - t0)
	s.rec.getBytes.Add(int64(len(data)))
	return data, err
}

func (s *timedStore) Stat(key string) (int64, error) {
	t0 := s.rec.now()
	n, err := s.Store.Stat(key)
	s.rec.statNs.Add(s.rec.now() - t0)
	s.rec.statCalls.Add(1)
	return n, err
}

// timedCodec times one level of the map-output codec stack: level 0 is the
// whole stack as the engine sees it, level 1 the entropy coder inside the
// transform. Its writers and readers offer the Reset methods the engine's
// codec pools look for, so traced runs recycle codec state exactly as
// untraced ones do.
type timedCodec struct {
	codec.Codec
	rec   *recorder
	level int
}

func (c *timedCodec) NewWriter(w io.Writer) io.WriteCloser {
	t := &timedWriter{c: c}
	if c.level == 1 {
		t.out = &countingWriter{n: &c.rec.codecBytesOut}
		t.out.w = w
		w = t.out
	}
	t.w = c.Codec.NewWriter(w)
	t.start = c.rec.now()
	return t
}

func (c *timedCodec) NewReader(src io.Reader) (io.ReadCloser, error) {
	rc, err := c.Codec.NewReader(src)
	if err != nil {
		return nil, err
	}
	return &timedReader{c: c, r: rc}, nil
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	return c.w.Write(p)
}

type timedWriter struct {
	c   *timedCodec
	w   io.WriteCloser
	out *countingWriter // level 1: counts the entropy coder's output

	start            int64
	calls, sampled   int64
	sampledNs, extra int64 // extra: Close, timed in full
	bytes            int64
}

func (t *timedWriter) Write(p []byte) (int, error) {
	i := t.calls
	t.calls++
	if t.c.level == 0 {
		t.bytes += int64(len(p))
		if t.c.rec.wantCapture && !t.c.rec.captureDone.Load() {
			t.c.rec.captureBytes(p)
		}
	}
	if i%writeSampleEvery != int64(t.c.level)*writeSampleEvery/2 {
		return t.w.Write(p)
	}
	t0 := t.c.rec.now()
	n, err := t.w.Write(p)
	t.sampledNs += max(0, t.c.rec.now()-t0-clockCost)
	t.sampled++
	return n, err
}

func (t *timedWriter) Close() error {
	r := t.c.rec
	t0 := r.now()
	err := t.w.Close()
	end := r.now()
	t.extra += end - t0
	busy := t.extra
	if t.sampled > 0 {
		busy += t.sampledNs * t.calls / t.sampled
	}
	if t.c.level == 0 {
		r.codecBytesIn.Add(t.bytes)
	}
	r.mu.Lock()
	r.streams = append(r.streams, writeStream{level: t.c.level, start: t.start, end: end, busy: busy})
	r.mu.Unlock()
	return err
}

// Reset is what codec.WriterPool calls to rebind a pooled writer.
func (t *timedWriter) Reset(dst io.Writer) {
	if t.out != nil {
		t.out.w = dst
		dst = t.out
	}
	if w, ok := t.w.(interface{ Reset(io.Writer) }); ok {
		w.Reset(dst)
	} else {
		t.w = t.c.Codec.NewWriter(dst)
	}
	t.start = t.c.rec.now()
	t.calls, t.sampled, t.sampledNs, t.extra, t.bytes = 0, 0, 0, 0, 0
}

func (r *recorder) captureBytes(p []byte) {
	r.mu.Lock()
	if room := captureLimit - len(r.capture); room > 0 {
		r.capture = append(r.capture, p[:min(room, len(p))]...)
	} else {
		r.captureDone.Store(true)
	}
	r.mu.Unlock()
}

// timedReader times every Read: the IFile reader pulls through a 4 KiB
// buffer, so there are thousands of calls per query, not millions.
type timedReader struct {
	c     *timedCodec
	r     io.ReadCloser
	calls []readCall
}

func (t *timedReader) Read(p []byte) (int, error) {
	t0 := t.c.rec.now()
	n, err := t.r.Read(p)
	t.calls = append(t.calls, readCall{start: t0, dur: max(0, t.c.rec.now()-t0-clockCost)})
	return n, err
}

func (t *timedReader) flush() {
	if len(t.calls) == 0 {
		return
	}
	r := t.c.rec
	r.mu.Lock()
	r.reads[t.c.level] = append(r.reads[t.c.level], t.calls...)
	r.mu.Unlock()
	t.calls = t.calls[:0]
}

func (t *timedReader) Close() error {
	t.flush()
	return t.r.Close()
}

// Reset is what codec.ReaderPool calls to rebind a pooled reader.
func (t *timedReader) Reset(src io.Reader) error {
	t.flush()
	switch r := t.r.(type) {
	case interface{ Reset(io.Reader) error }:
		return r.Reset(src)
	case zlib.Resetter:
		return r.Reset(src, nil)
	}
	rc, err := t.c.Codec.NewReader(src)
	if err != nil {
		return err
	}
	t.r = rc
	return nil
}

package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scikey/internal/codec"
)

// setProcs sets GOMAXPROCS — the CPU pool's size, read at every grant — for
// the rest of the test.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// gauge counts the goroutines inside instrumented work and keeps the peak.
type gauge struct{ cur, peak atomic.Int64 }

func (g *gauge) enter() {
	n := g.cur.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
}

func (g *gauge) exit() { g.cur.Add(-1) }

// gaugeCodec wraps a codec and reports its work: every Write, Close and Read
// call counts in work while it runs, and every writer counts in open from
// its creation to its Close. beforeClose, when set, runs first in every
// writer's Close. Its writers and readers have no Reset, so the engine's
// pools never recycle them and every stream is a fresh one.
type gaugeCodec struct {
	inner       codec.Codec
	work, open  *gauge
	beforeClose func()
}

func (c *gaugeCodec) Name() string { return "gauge+" + c.inner.Name() }

func (c *gaugeCodec) NewWriter(w io.Writer) io.WriteCloser {
	if c.open != nil {
		c.open.enter()
	}
	return &gaugeWriter{c.inner.NewWriter(w), c}
}

func (c *gaugeCodec) NewReader(r io.Reader) (io.ReadCloser, error) {
	rc, err := c.inner.NewReader(r)
	if err != nil {
		return nil, err
	}
	return &gaugeReader{rc, c}, nil
}

func (c *gaugeCodec) count(fn func()) {
	if c.work != nil {
		c.work.enter()
		defer c.work.exit()
	}
	fn()
}

type gaugeWriter struct {
	w io.WriteCloser
	c *gaugeCodec
}

func (w *gaugeWriter) Write(p []byte) (n int, err error) {
	w.c.count(func() { n, err = w.w.Write(p) })
	return n, err
}

func (w *gaugeWriter) Close() (err error) {
	if w.c.beforeClose != nil {
		w.c.beforeClose()
	}
	w.c.count(func() { err = w.w.Close() })
	if w.c.open != nil {
		w.c.open.exit()
	}
	return err
}

type gaugeReader struct {
	r io.ReadCloser
	c *gaugeCodec
}

func (r *gaugeReader) Read(p []byte) (n int, err error) {
	r.c.count(func() { n, err = r.r.Read(p) })
	return n, err
}

func (r *gaugeReader) Close() error { return r.r.Close() }

// poolDocs builds n documents of words words each over a 500-word vocabulary.
func poolDocs(n, words int) []string {
	docs := make([]string, n)
	for d := range docs {
		var b strings.Builder
		for i := 0; i < words; i++ {
			fmt.Fprintf(&b, "w%03d ", (i*7919+d*31)%500)
		}
		docs[d] = b.String()
	}
	return docs
}

// gaugeUserCode counts the job's mapper and reducer calls in g.
func gaugeUserCode(job *Job, g *gauge) {
	newMapper, newReducer := job.NewMapper, job.NewReducer
	job.NewMapper = func() Mapper {
		m := newMapper()
		return MapperFunc(func(ctx *TaskContext, split Split, emit Emit) error {
			g.enter()
			defer g.exit()
			return m.Map(ctx, split, emit)
		})
	}
	job.NewReducer = func() Reducer {
		r := newReducer()
		return ReducerFunc(func(ctx *TaskContext, key []byte, values [][]byte, emit Emit) error {
			g.enter()
			defer g.exit()
			return r.Reduce(ctx, key, values, emit)
		})
	}
}

func TestCPUPoolTokens(t *testing.T) {
	setProcs(t, 2)
	var p cpuPool
	if !p.tryAcquire() || !p.tryAcquire() {
		t.Fatal("two spare tokens at GOMAXPROCS 2, tryAcquire refused one")
	}
	if p.tryAcquire() {
		t.Fatal("tryAcquire granted a third token at GOMAXPROCS 2")
	}
	canceled := make(chan struct{})
	close(canceled)
	if p.acquire(canceled) {
		t.Fatal("acquire under a canceled context granted a token none was free for")
	}
	granted := make(chan bool)
	go func() { granted <- p.acquire(nil) }()
	for {
		p.mu.Lock()
		n := len(p.waiters)
		p.mu.Unlock()
		if n == 1 {
			break
		}
		runtime.Gosched()
	}
	p.release()
	if p.tryAcquire() {
		t.Error("a helper's tryAcquire took the token a blocked attempt was waiting for")
	}
	if !<-granted {
		t.Fatal("the blocked acquire was not granted the released token")
	}
	setProcs(t, 3)
	if !p.tryAcquire() {
		t.Error("the pool did not grow with GOMAXPROCS")
	}
	for i := 0; i < 3; i++ {
		p.release()
	}
	if p.held != 0 || len(p.waiters) != 0 {
		t.Errorf("after releasing everything: held %d, waiters %d", p.held, len(p.waiters))
	}
}

// TestCPUPoolBoundsComputingWork runs two jobs at once, as two of the query
// service's executors do, each at Parallelism 4 with several spills per map
// task and a coded shuffle. At GOMAXPROCS 2 no more than two goroutines may
// ever be inside a mapper, a reducer, or a codec call at the same time:
// attempts, spill workers, finalize's merges and the coded validation scans
// all compute on the process's two tokens.
func TestCPUPoolBoundsComputingWork(t *testing.T) {
	setProcs(t, 2)
	var work gauge
	gc := &gaugeCodec{inner: codec.Zlib, work: &work}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		job := wordCountJob(testFS(), poolDocs(8, 3000), 5, false)
		job.Parallelism = 4
		job.SpillBufferBytes = 4 << 10
		job.MapOutputCodec = gc
		gaugeUserCode(job, &work)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = Run(job)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if peak := work.peak.Load(); peak != 2 {
		t.Errorf("peak goroutines computing at once = %d, want 2 (the pool's size)", peak)
	}
}

// TestCPUPoolKeepsOverlapAtParallelismOne: a lone attempt leaves the spare
// token to its helpers, so the spill worker runs beside the mapper and
// finalize merges two partitions at once — the overlap one attempt at a time
// has always had.
func TestCPUPoolKeepsOverlapAtParallelismOne(t *testing.T) {
	setProcs(t, 2)
	deadline := time.Now().Add(5 * time.Second)

	// The spill's combiner waits for the mapper to get past the emit that
	// triggered the spill: only a spill running beside the mapper sees it.
	past := make(chan struct{})
	var once sync.Once
	beside := false
	var open gauge
	gc := &gaugeCodec{inner: codec.Zlib, open: &open, beforeClose: func() {
		// Hold each final segment open until a second one is, or give up.
		for open.peak.Load() < 2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}}
	job := wordCountJob(testFS(), []string{""}, 4, false)
	job.Parallelism = 1
	job.SpillBufferBytes = 4 << 10
	job.MapOutputCodec = gc
	job.MapCombiner = &waitMonoid{Monoid: SumInt32, first: func() {
		once.Do(func() {
			select {
			case <-past:
				beside = true
			case <-time.After(time.Until(deadline)):
			}
		})
	}}
	var closePast sync.Once
	job.NewMapper = func() Mapper {
		return MapperFunc(func(ctx *TaskContext, split Split, emit Emit) error {
			one := []byte{0, 0, 0, 1}
			buffered := 0
			for i := 0; i < 4000; i++ {
				// 50 distinct words, so the first spill has runs to fold.
				w := fmt.Sprintf("w%02d", i%50)
				emit([]byte(w), one)
				if buffered += len(w) + len(one); buffered >= job.SpillBufferBytes {
					closePast.Do(func() { close(past) })
				}
			}
			return nil
		})
	}
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if !beside {
		t.Error("the first spill ran inside the emit that triggered it, not beside the mapper")
	}
	if peak := open.peak.Load(); peak < 2 {
		t.Errorf("finalize wrote %d final segment(s) at a time, want 2", peak)
	}
	if res.Counters.SpilledRecords.Value() == 0 {
		t.Error("nothing spilled")
	}
}

// waitMonoid calls first before every merge, then merges as Monoid does.
type waitMonoid struct {
	Monoid
	first func()
}

func (m *waitMonoid) Merge(a, b []byte) ([]byte, error) {
	m.first()
	return m.Monoid.Merge(a, b)
}

// TestCPUPoolRecoveryDoesNotDeadlock: reduce attempts that hit corrupt map
// output give their tokens back before the producing map tasks re-run, so
// a recovery at Parallelism 4 on two tokens completes, byte-identical to
// the fault-free run.
func TestCPUPoolRecoveryDoesNotDeadlock(t *testing.T) {
	setProcs(t, 2)
	docs := poolDocs(8, 500)
	cleanFS := testFS()
	clean, err := Run(wordCountJob(cleanFS, docs, 5, false))
	if err != nil {
		t.Fatal(err)
	}
	fs := testFS()
	job := wordCountJob(fs, docs, 5, false)
	job.Parallelism = 4
	job.Retry = RetryPolicy{MaxAttempts: 3}
	job.Faults = mustInjector(t, "seed=7;segment:2.0:corrupt@0;segment:5.3:corrupt@0;segment:7.4:corrupt@0")
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(job)
		done <- outcome{res, err}
	}()
	var o outcome
	select {
	case o = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("recovery did not finish within 10s: the CPU pool deadlocked")
	}
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.res.Counters.MapTasksRecovered.Value() == 0 {
		t.Error("no map task re-ran")
	}
	want := readRawOutputs(t, cleanFS, clean.OutputPaths)
	for i, got := range readRawOutputs(t, fs, o.res.OutputPaths) {
		if got != want[i] {
			t.Errorf("output %d differs from the fault-free run", i)
		}
	}
}

// TestCPUPoolAttemptClockStartsWithToken: with one token and four attempts
// admitted at once, the attempts take turns on the core, and each one's
// measured wall time starts when it gets it — so the attempts' wall times
// add up to the job's, not to four times it.
func TestCPUPoolAttemptClockStartsWithToken(t *testing.T) {
	setProcs(t, 1)
	job := wordCountJob(testFS(), poolDocs(8, 20000), 2, false)
	job.Parallelism = 4
	t0 := time.Now()
	res, err := Run(job)
	wall := time.Since(t0).Seconds()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range res.CalSamples {
		sum += s.WallSeconds
	}
	if sum > 1.2*wall {
		t.Errorf("attempt wall times sum to %.3fs over a %.3fs job: attempts were clocked while waiting for a core", sum, wall)
	}
}

// TestCommittedMapTasksReleaseBuffers: a map attempt returns its collecting
// buffer set to the pool whichever way it ends, so the committed attempts
// the job keeps until it ends pin no spill buffers through the reduce phase.
func TestCommittedMapTasksReleaseBuffers(t *testing.T) {
	// At GOMAXPROCS 1 every spill runs in place, at 2 through the worker.
	for _, procs := range []int{1, 2} {
		setProcs(t, procs)
		job := wordCountJob(testFS(), poolDocs(4, 2000), 3, false)
		job.SpillBufferBytes = 2 << 10
		r, err := newJobRun(job)
		if err != nil {
			t.Fatal(err)
		}
		err = r.mapPhase()
		r.close()
		if err != nil {
			t.Fatal(err)
		}
		for i, mt := range r.tasks {
			if mt.parts != nil {
				t.Errorf("GOMAXPROCS %d: committed map task %d still holds a partition-buffer set", procs, i)
			}
		}
	}

	failing := wordCountJob(testFS(), poolDocs(1, 2000), 3, false)
	failing.SpillBufferBytes = 2 << 10
	mapper := failing.NewMapper
	failing.NewMapper = func() Mapper {
		m := mapper()
		return MapperFunc(func(ctx *TaskContext, split Split, emit Emit) error {
			if err := m.Map(ctx, split, emit); err != nil {
				return err
			}
			return errors.New("mapper fails after emitting")
		})
	}
	mt := newMapTask(context.Background(), failing, 0, 0)
	if err := mt.run(failing.Splits[0]); err == nil {
		t.Fatal("the failing mapper's attempt succeeded")
	}
	if mt.parts != nil {
		t.Error("a failed map attempt still holds a partition-buffer set")
	}

	// An attempt queued on a full pool holds no set, and one canceled while
	// it waits returns without ever taking one.
	setProcs(t, 1)
	if !cpu.acquire(nil) {
		t.Fatal("could not take the only token")
	}
	defer cpu.release()
	job := wordCountJob(testFS(), poolDocs(1, 2000), 3, false)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queued := newMapTask(ctx, job, 0, 0)
	done := make(chan error, 1)
	go func() { done <- queued.run(job.Splits[0]) }()
	for waiting := 0; waiting == 0; {
		cpu.mu.Lock()
		waiting = len(cpu.waiters)
		cpu.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	if queued.parts != nil {
		t.Error("a map attempt waiting for a CPU token holds a partition-buffer set")
	}
	cancel()
	if err := <-done; !errors.Is(err, ErrAttemptCanceled) {
		t.Fatalf("canceled wait returned %v, want ErrAttemptCanceled", err)
	}
	if queued.parts != nil {
		t.Error("a map attempt canceled while waiting for a CPU token holds a partition-buffer set")
	}
}

// TestFinalSegmentsExactSize: a published map output lives until the job
// ends, so it must not keep a pooled buffer's power-of-two capacity —
// whether it was merged from several spills or is a task's lone spill, raw
// or coded.
func TestFinalSegmentsExactSize(t *testing.T) {
	docs := poolDocs(3, 1500)
	for _, name := range []string{"none", "zlib", "transform+zlib"} {
		c, err := codec.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, spill := range []int{0, 1 << 10} {
			t.Run(fmt.Sprintf("%s/spill=%d", name, spill), func(t *testing.T) {
				job := wordCountJob(testFS(), docs, 3, false)
				job.MapOutputCodec = c
				job.SpillBufferBytes = spill
				for id, split := range job.Splits {
					mt := newMapTask(context.Background(), job, id, 0)
					if err := mt.run(split); err != nil {
						t.Fatal(err)
					}
					for p, f := range mt.finals {
						if len(f.data) == 0 {
							t.Fatalf("task %d partition %d: empty final", id, p)
						}
						if cap(f.data) != len(f.data) {
							t.Errorf("task %d partition %d: final is %d bytes in a %d-byte buffer", id, p, len(f.data), cap(f.data))
						}
					}
				}
			})
		}
	}
}

// TestSpillBufferRefBounds: buffered records are addressed by 32-bit refs,
// so Job.validate refuses a spill buffer whose offsets could overflow one,
// naming the field, and a record that cannot be addressed panics with its
// sizes.
func TestSpillBufferRefBounds(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("needs sizes beyond 32 bits")
	}
	var maxRef uint64 = math.MaxUint32
	for _, tc := range []struct {
		spill   int
		wantErr bool
	}{
		{0, false},
		{16 << 20, false},
		{int(maxRef), false},
		{int(maxRef + 1), true},
		{int(maxRef * 4), true},
	} {
		job := wordCountJob(testFS(), []string{"a"}, 1, false)
		job.SpillBufferBytes = tc.spill
		err := job.validate()
		if (err != nil) != tc.wantErr || err != nil && !strings.Contains(err.Error(), "SpillBufferBytes") {
			t.Errorf("SpillBufferBytes %d: validate = %v, want error %v naming the field", tc.spill, err, tc.wantErr)
		}
	}
	for _, tc := range []struct {
		off, klen, vlen int
		panics          bool
	}{
		{0, 12, 4, false},
		{int(maxRef), int(maxRef), int(maxRef), false},
		{0, int(maxRef + 1), 4, true},
		{0, 12, int(maxRef + 1), true},
		{int(maxRef + 1), 12, 4, true},
	} {
		func() {
			defer func() {
				r := recover()
				if (r != nil) != tc.panics {
					t.Errorf("newKVRef(%d, %d, %d): panic %v, want panic %v", tc.off, tc.klen, tc.vlen, r, tc.panics)
				}
				if msg, _ := r.(string); r != nil && !strings.Contains(msg, strconv.Itoa(tc.klen)+"-byte key") {
					t.Errorf("panic %q does not name the record's sizes", msg)
				}
			}()
			r := newKVRef(tc.off, tc.klen, tc.vlen)
			if int(r.off) != tc.off || int(r.klen) != tc.klen || int(r.vlen) != tc.vlen {
				t.Errorf("newKVRef(%d, %d, %d) = %+v", tc.off, tc.klen, tc.vlen, r)
			}
		}()
	}
}

package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter", "")
	c.Inc()
	c.Add(4)
	c.Add(-7) // negative adds are ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "a gauge", "bytes")
	g.Set(10)
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
}

func TestRegistryIdempotentLookup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", "")
	b := r.Counter("x_total", "", "")
	a.Inc()
	b.Inc()
	if a.Value() != 2 || b.Value() != 2 {
		t.Errorf("same-name handles should share a series: %d, %d", a.Value(), b.Value())
	}
	// Different labels are a different series.
	l := r.Counter("x_total", "", "", L("node", "0"))
	l.Inc()
	if a.Value() != 2 || l.Value() != 1 {
		t.Errorf("labeled series should be distinct: %d, %d", a.Value(), l.Value())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual", "", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("dual", "", "")
}

func TestNilAndZeroHandlesNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("c_total", "", "")
	g := r.Gauge("g", "", "")
	h := r.Histogram("h", "", "", nil)
	c.Inc()
	g.Set(5)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil-registry handles must read zero")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot should be nil")
	}

	var tr *Tracer
	sp := tr.Start(CatPhase, "x", 0, 0, 0)
	sp.End() // must not panic
	if sp.ID() != 0 || sp.Tracer() != nil {
		t.Error("nil-tracer span should be the zero span")
	}
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Error("nil tracer should hold nothing")
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", "seconds", []float64{1, 10})
	for _, v := range []float64{0.5, 0.5, 5, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d series", len(snap))
	}
	s := snap[0]
	want := []int64{2, 1, 1} // le=1, le=10, +Inf
	for i, n := range want {
		if s.Buckets[i] != n {
			t.Errorf("bucket[%d] = %d, want %d", i, s.Buckets[i], n)
		}
	}
	if s.Count != 4 || s.Sum != 106 {
		t.Errorf("snapshot count = %d, sum = %g; want 4, 106", s.Count, s.Sum)
	}
}

// TestSnapshotConsistencyConcurrent hammers one histogram and one counter
// from many goroutines while snapshotting: under -race this exercises the
// lock-free hot path, and every snapshot must be internally consistent
// (histogram Count equals the sum of its Buckets by construction — assert
// the counter and sum never run backwards across snapshots instead).
func TestSnapshotConsistencyConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("work_total", "", "")
	h := r.Histogram("work_seconds", "", "seconds", []float64{0.001, 0.01, 0.1})
	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				h.Observe(float64(seed*i%7) * 0.005)
			}
		}(w + 1)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var lastCount, lastCounter int64
	for {
		select {
		case <-done:
			if got := h.Count(); got != writers*perWriter {
				t.Errorf("final histogram count = %d, want %d", got, writers*perWriter)
			}
			if got := c.Value(); got != writers*perWriter {
				t.Errorf("final counter = %d, want %d", got, writers*perWriter)
			}
			return
		default:
		}
		for _, s := range r.Snapshot() {
			if s.Type == "histogram" {
				var n int64
				for _, b := range s.Buckets {
					n += b
				}
				if n != s.Count {
					t.Fatalf("snapshot count %d != bucket sum %d", s.Count, n)
				}
				if s.Count < lastCount {
					t.Fatalf("histogram count went backwards: %d -> %d", lastCount, s.Count)
				}
				lastCount = s.Count
			} else if s.Name == "work_total" {
				if s.Value < lastCounter {
					t.Fatalf("counter went backwards: %d -> %d", lastCounter, s.Value)
				}
				lastCounter = s.Value
			}
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "Jobs run", "").Add(3)
	h := r.Histogram("lat_seconds", "Latency", "seconds", []float64{1})
	h.Observe(0.5)
	h.Observe(2)
	for _, node := range []string{"0", "1"} {
		r.Counter("fetches_total", "Fetches", "", L("node", node)).Inc()
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP jobs_total Jobs run\n# TYPE jobs_total counter\njobs_total 3\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="1"} 1`,
		`lat_seconds_bucket{le="+Inf"} 2`, // cumulative
		"lat_seconds_sum 2.5",
		"lat_seconds_count 2",
		`fetches_total{node="0"} 1`,
		`fetches_total{node="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// One HELP/TYPE header per metric name even with multiple label sets.
	if n := strings.Count(out, "# TYPE fetches_total"); n != 1 {
		t.Errorf("fetches_total has %d TYPE headers, want 1", n)
	}
}

func TestTracerSpansAndOutcomes(t *testing.T) {
	tr := NewTracer(0)
	job := tr.Start(CatJob, "test-job", 0, -1, -1)
	att := tr.Start(CatAttempt, "map", job.ID(), 3, 0)
	spec := tr.Start(CatAttempt, "map", job.ID(), 3, 1).Speculative()
	ph := tr.Start(CatPhase, "spill", att.ID(), 3, 0)
	ph.End()
	att.EndOutcome(OutcomeWon)
	spec.EndOutcome(OutcomeLost)
	spec.EndOutcome(OutcomeWon) // idempotent: first End wins
	job.EndOutcome("ok")

	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	byID := map[SpanID]Event{}
	for _, ev := range evs {
		byID[ev.ID] = ev
	}
	if got := byID[att.ID()]; got.Outcome != OutcomeWon || got.Parent != job.ID() {
		t.Errorf("attempt span = %+v", got)
	}
	if got := byID[spec.ID()]; got.Outcome != OutcomeLost || !got.Speculative {
		t.Errorf("speculative span = %+v (second EndOutcome must not override)", got)
	}
	if got := byID[ph.ID()]; got.Parent != att.ID() || got.Cat != CatPhase {
		t.Errorf("phase span = %+v", got)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Start < evs[i-1].Start {
			t.Error("events not sorted by start time")
		}
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(2) // 16 shards x 2 = 32 retained spans
	for i := 0; i < 100; i++ {
		sp := tr.Start(CatPhase, "p", 0, i, 0)
		sp.End()
	}
	evs := tr.Events()
	if got := len(evs); got != 32 {
		t.Errorf("retained %d events, want 32", got)
	}
	for _, ev := range evs {
		if ev.Task < 68 {
			t.Errorf("span of task %d retained: a wrapping ring keeps the newest", ev.Task)
		}
	}
	if got := tr.Dropped(); got != 68 {
		t.Errorf("dropped = %d, want 68", got)
	}
}

func TestWriteChromeTraceIsValidJSON(t *testing.T) {
	tr := NewTracer(0)
	job := tr.Start(CatJob, "j", 0, -1, -1)
	att := tr.Start(CatAttempt, "reduce", job.ID(), 0, 1).Speculative()
	att.EndOutcome(OutcomeFailed)
	job.EndOutcome("ok")

	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &evs); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(evs) != 2 {
		t.Fatalf("trace has %d events, want 2", len(evs))
	}
	for _, ev := range evs {
		if ev["ph"] != "X" || ev["pid"] != float64(1) {
			t.Errorf("event = %v", ev)
		}
	}
	// The speculative reduce attempt renders with provenance in the name and
	// outcome in args.
	var found bool
	for _, ev := range evs {
		if ev["name"] == "reduce 0/1 (spec)" {
			found = true
			args := ev["args"].(map[string]any)
			if args["outcome"] != OutcomeFailed || args["speculative"] != true {
				t.Errorf("args = %v", args)
			}
		}
	}
	if !found {
		t.Errorf("no speculative attempt event in %s", sb.String())
	}
}

func TestWriteTimeline(t *testing.T) {
	tr := NewTracer(0)
	job := tr.Start(CatJob, "j", 0, -1, -1)
	att := tr.Start(CatAttempt, "map", job.ID(), 0, 0)
	att.EndOutcome(OutcomeWon)
	job.EndOutcome("ok")
	var sb strings.Builder
	if err := tr.WriteTimeline(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"j", "map 0/0", "[won]", "[ok]"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestServerEndpoints(t *testing.T) {
	o := New()
	o.R().Counter("scikey_test_total", "test", "").Add(7)
	sp := o.T().Start(CatJob, "srv-job", 0, -1, -1)
	sp.EndOutcome("ok")

	srv, err := NewServer("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		cl := &http.Client{Timeout: 5 * time.Second}
		resp, err := cl.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	if body, ct := get("/metrics"); !strings.Contains(body, "scikey_test_total 7") {
		t.Errorf("/metrics = %q", body)
	} else if !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	if body, _ := get("/metrics.txt"); !strings.Contains(body, "scikey_test_total = 7") {
		t.Errorf("/metrics.txt = %q", body)
	}
	if body, ct := get("/trace"); ct != "application/json" {
		t.Errorf("/trace content type = %q", ct)
	} else {
		var evs []map[string]any
		if err := json.Unmarshal([]byte(body), &evs); err != nil || len(evs) != 1 {
			t.Errorf("/trace = %q (err %v)", body, err)
		}
	}
	if body, _ := get("/trace.txt"); !strings.Contains(body, "srv-job") {
		t.Errorf("/trace.txt = %q", body)
	}
	if body, _ := get("/"); !strings.Contains(body, "/debug/pprof/") {
		t.Errorf("index = %q", body)
	}
	if body, _ := get("/debug/vars"); !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars = %q", body)
	}
}

// TestWriteFileAtomic: an interrupted render leaves the previous file
// untouched and no temp file behind; a completed one replaces it whole.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("interrupted")
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "{\"half\":")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed render returned %v, want the render error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Errorf("failed render left %q, want the old content", got)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Errorf("failed render left %d directory entries, want 1", len(ents))
	}
	if err := WriteFile(path, func(w io.Writer) error { _, err := io.WriteString(w, "new"); return err }); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Errorf("completed render left %q, want %q", got, "new")
	}
}

package queryd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"scikey/internal/cluster"
	"scikey/internal/core"
	"scikey/internal/hdfs"
	"scikey/internal/obs"
	"scikey/internal/scihadoop"
	"scikey/internal/store"
	"scikey/internal/workload"
)

// testSpec is the small-but-real query every service test submits: explicit
// splits/reducers so the cache key is fully pinned.
func testSpec() QuerySpec {
	return QuerySpec{
		Side:     24,
		Strategy: "transform",
		Codec:    "block+zlib",
		Op:       "median",
		Radius:   1,
		Splits:   4,
		Reducers: 2,
	}
}

// localStore returns a fresh cache store over its own HDFS instance, as
// scijob -serve wires it.
func localStore() store.Store {
	return store.NewLocal(hdfs.New(64<<20, 3, []string{"s0", "s1", "s2"}), "/store")
}

// serviceBackends builds one fresh Store per backend.
func serviceBackends() map[string]func() store.Store {
	return map[string]func() store.Store{"local": localStore}
}

// mapAttempts reads the map-phase attempt histogram count — zero added
// attempts is the observable proof that a run skipped the map phase.
func mapAttempts(o *obs.Observer) int64 {
	return o.R().Histogram("scikey_attempt_seconds",
		"Duration of task attempts by phase", "seconds", nil, obs.L("phase", "map")).Count()
}

// oneShotSHA runs the spec outside any service — the independent baseline a
// cached response must match byte for byte.
func oneShotSHA(t *testing.T, spec QuerySpec) string {
	t.Helper()
	sha, _ := oneShot(t, spec)
	return sha
}

// oneShot runs the spec as scijob does without -serve, its attempts one at a
// time, and returns its output sha and report.
func oneShot(t *testing.T, spec QuerySpec) (string, *core.Report) {
	t.Helper()
	fs, qcfg, strat, err := spec.Setup()
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	rep, res, err := core.RunQueryResult(fs, qcfg, strat, cluster.Paper(), false)
	if err != nil {
		t.Fatalf("one-shot run: %v", err)
	}
	sha, err := OutputSHA(fs, res)
	if err != nil {
		t.Fatalf("one-shot sha: %v", err)
	}
	return sha, rep
}

// payloadCounters are the report's counters that describe the bytes a
// query moved, identical however its attempts were scheduled.
func payloadCounters(r *core.Report) [10]int64 {
	return [10]int64{r.MapOutputRecords, r.KeyBytes, r.ValueBytes, r.MaterializedBytes,
		r.ShuffleBytes, r.PartitionSplits, r.OverlapSplits,
		r.CombineMergedRecords, r.CombineEmittedRecords, r.CombineSavedBytes}
}

// TestServiceCacheHitBothBackends: on each Store backend, a repeated
// identical query must skip the map phase (CacheHit, zero new map attempts)
// and return output byte-identical to both the cold run and an independent
// one-shot execution.
func TestServiceCacheHitBothBackends(t *testing.T) {
	spec := testSpec()
	want := oneShotSHA(t, spec)
	for name, mk := range serviceBackends() {
		t.Run(name, func(t *testing.T) {
			ob := obs.New()
			svc := New(Config{Store: mk(), Obs: ob})
			defer svc.Close()

			cold, err := svc.Submit(spec)
			if err != nil {
				t.Fatalf("cold submit: %v", err)
			}
			if cold.CacheHit {
				t.Fatal("cold run reported a cache hit")
			}
			if cold.OutputSHA != want {
				t.Fatalf("cold sha %s != one-shot sha %s", cold.OutputSHA, want)
			}
			after := mapAttempts(ob)
			if after != int64(spec.Splits) {
				t.Fatalf("cold run scheduled %d map attempts, want %d", after, spec.Splits)
			}

			warm, err := svc.Submit(spec)
			if err != nil {
				t.Fatalf("warm submit: %v", err)
			}
			if !warm.CacheHit {
				t.Fatal("warm run missed the cache")
			}
			if warm.OutputSHA != want {
				t.Fatalf("warm sha %s != one-shot sha %s", warm.OutputSHA, want)
			}
			if n := mapAttempts(ob); n != after {
				t.Fatalf("warm run scheduled %d new map attempts, want 0", n-after)
			}
			if hits := ob.R().Counter("scikey_cache_hit_total", "Map-output cache hits", "").Value(); hits != 1 {
				t.Fatalf("scikey_cache_hit_total = %d, want 1", hits)
			}
		})
	}
}

// TestServiceColdRaceSingleflight: two identical queries racing on a cold
// key must run exactly one map phase — the loser waits on the per-key
// flight lock, then restores the winner's freshly cached segments — and
// both must return byte-identical output.
func TestServiceColdRaceSingleflight(t *testing.T) {
	spec := testSpec()
	ob := obs.New()
	svc := New(Config{Store: localStore(), Obs: ob, Workers: 2})
	defer svc.Close()

	var wg sync.WaitGroup
	resps := make([]*Response, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = svc.Submit(spec)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("racer %d: %v", i, err)
		}
	}
	if resps[0].OutputSHA != resps[1].OutputSHA {
		t.Fatalf("racers diverged: %s vs %s", resps[0].OutputSHA, resps[1].OutputSHA)
	}
	if n := mapAttempts(ob); n != int64(spec.Splits) {
		t.Fatalf("race ran %d map attempts total, want exactly %d (one map phase)", n, spec.Splits)
	}
	hit := 0
	for _, r := range resps {
		if r.CacheHit {
			hit++
		}
	}
	if hit != 1 {
		t.Fatalf("%d racers hit the cache, want exactly 1 (the flight loser)", hit)
	}
}

// submitAll submits every spec concurrently and fails the test on any error.
func submitAll(t *testing.T, svc *Service, specs []QuerySpec) []*Response {
	t.Helper()
	var wg sync.WaitGroup
	resps := make([]*Response, len(specs))
	errs := make([]error, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = svc.Submit(spec)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	return resps
}

// flightCount reads how many per-key flight entries the service holds.
func flightCount(s *Service) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.flights)
}

// TestServiceCorruptSnapshotRunsOneMapPhase: a cached blob that fails to
// decode is a miss, and it must not be one for every racer. Four identical
// queries racing over a corrupt snapshot run exactly one map phase — the
// first deletes the blob, counts one decode error and caches fresh
// segments; the other three wait on the flight lock and hit — and every
// response matches the one-shot run. The cache gauges end equal to what the
// store holds, so the deleted blob's bytes were not counted twice.
func TestServiceCorruptSnapshotRunsOneMapPhase(t *testing.T) {
	spec := testSpec()
	want := oneShotSHA(t, spec)
	st := localStore()
	if err := st.Put(storeKey(spec.CacheKey()), []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}
	ob := obs.New()
	svc := New(Config{Store: st, Obs: ob, Workers: 4})
	defer svc.Close()

	resps := submitAll(t, svc, []QuerySpec{spec, spec, spec, spec})
	for i, r := range resps {
		if r.OutputSHA != want {
			t.Errorf("submission %d sha %s != one-shot sha %s", i, r.OutputSHA, want)
		}
	}
	if n := mapAttempts(ob); n != int64(spec.Splits) {
		t.Errorf("%d map attempts over a corrupt snapshot, want exactly %d (one map phase)", n, spec.Splits)
	}
	reg := ob.R()
	if n := reg.Counter("scikey_cache_decode_errors_total", "", "").Value(); n != 1 {
		t.Errorf("scikey_cache_decode_errors_total = %d, want 1", n)
	}
	if n := reg.Counter("scikey_cache_hit_total", "", "").Value(); n != 3 {
		t.Errorf("scikey_cache_hit_total = %d, want 3", n)
	}

	keys, err := st.List(cacheKeyPrefix)
	if err != nil {
		t.Fatal(err)
	}
	var size int64
	for _, k := range keys {
		n, err := st.Stat(k)
		if err != nil {
			t.Fatal(err)
		}
		size += n
	}
	if g := reg.Gauge("scikey_cache_entries", "", "").Value(); g != int64(len(keys)) {
		t.Errorf("scikey_cache_entries = %d, store holds %d", g, len(keys))
	}
	if g := reg.Gauge("scikey_cache_bytes", "", "").Value(); g != size {
		t.Errorf("scikey_cache_bytes = %d, store holds %d", g, size)
	}
	if n := flightCount(svc); n != 0 {
		t.Errorf("%d flight entries left on an idle service, want 0", n)
	}
}

// TestServiceFlightsPruned: a flight entry lives only while some query of
// its key is running or waiting, so distinct keys do not accumulate one
// mutex each for the life of the service.
func TestServiceFlightsPruned(t *testing.T) {
	svc := New(Config{Store: localStore(), Obs: obs.New(), Workers: 2})
	defer svc.Close()
	for i := 0; i < 20; i++ {
		spec := testSpec()
		spec.Side = 16 + i
		if _, err := svc.Submit(spec); err != nil {
			t.Fatalf("side %d: %v", spec.Side, err)
		}
	}
	spec := testSpec()
	submitAll(t, svc, []QuerySpec{spec, spec})
	if n := flightCount(svc); n != 0 {
		t.Fatalf("%d flight entries left after 22 submissions on an idle service, want 0", n)
	}
}

// TestServiceQuotaRejection: a tenant whose remaining quota is below the
// predicted cost gets an immediate typed *QuotaError — not a stall, not a
// queue slot — while a tenant with headroom sails through.
func TestServiceQuotaRejection(t *testing.T) {
	spec := testSpec()
	spec.Tenant = "starved"
	svc := New(Config{
		Store:  localStore(),
		Obs:    obs.New(),
		Quotas: map[string]float64{"starved": 1e-12},
	})
	defer svc.Close()

	done := make(chan struct{})
	var resp *Response
	var err error
	go func() {
		resp, err = svc.Submit(spec)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("over-quota submit stalled instead of rejecting")
	}
	if resp != nil {
		t.Fatal("over-quota submit returned a response")
	}
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("error %v (%T) is not a *QuotaError", err, err)
	}
	if qe.Tenant != "starved" || qe.PredictedSeconds <= qe.RemainingSeconds {
		t.Fatalf("quota error fields inconsistent: %+v", qe)
	}
	if spent := svc.TenantSpent("starved"); spent != 0 {
		t.Fatalf("rejected tenant was charged %v seconds", spent)
	}

	// An unlimited tenant runs the same spec fine and gets charged.
	spec.Tenant = "funded"
	if _, err := svc.Submit(spec); err != nil {
		t.Fatalf("funded submit: %v", err)
	}
	if spent := svc.TenantSpent("funded"); spent <= 0 {
		t.Fatal("completed query charged nothing")
	}
}

// TestServiceQueueFull: with one executor held and the one-slot queue
// occupied, the next submit fails fast with a typed *QueueFullError; the
// held work still completes once released.
func TestServiceQueueFull(t *testing.T) {
	svc := New(Config{Store: localStore(), Obs: obs.New(), Workers: 1, QueueDepth: 1})
	// The one executor parks in holdExec with a request in hand. Whatever
	// way the test ends, release it before Close waits for it (cleanups run
	// last-registered first).
	t.Cleanup(svc.Close)
	hold, parked := make(chan struct{}), make(chan struct{}, 2)
	release := sync.OnceFunc(func() { close(hold) })
	t.Cleanup(release)
	svc.holdExec = func() {
		parked <- struct{}{}
		<-hold
	}

	spec := testSpec()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = svc.Submit(spec)
		}()
	}

	// First query: the executor says when it has taken it off the queue.
	// From then on the queue has no consumer, so its length only grows and
	// reading it is not a race against the executor: the second query is in
	// the only slot once the length is 1.
	submit(0)
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("executor never picked up the first query")
	}
	submit(1)
	waitFor(t, func() bool { return len(svc.queue) == 1 })

	_, err := svc.Submit(spec)
	var fe *QueueFullError
	if !errors.As(err, &fe) {
		t.Fatalf("error %v (%T) is not a *QueueFullError", err, err)
	}
	if fe.Depth != 1 {
		t.Fatalf("QueueFullError.Depth = %d, want 1", fe.Depth)
	}

	release()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("held query %d failed: %v", i, err)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServiceRejectsFaultSpecs: fault schedules and cached output don't
// mix, so the resident service refuses them outright.
func TestServiceRejectsFaultSpecs(t *testing.T) {
	svc := New(Config{Obs: obs.New()})
	defer svc.Close()
	spec := testSpec()
	spec.Faults = "map:0:error@0"
	if _, err := svc.Submit(spec); err == nil || !strings.Contains(err.Error(), "fault injection") {
		t.Fatalf("faulty spec error = %v, want fault-injection rejection", err)
	}
}

// TestServerClosesHeaderlessConnection: a client that connects and never
// finishes its request headers is disconnected after the header timeout
// instead of holding a connection of the resident service open forever.
func TestServerClosesHeaderlessConnection(t *testing.T) {
	srv, err := newServer("127.0.0.1:0", New(Config{Obs: obs.New()}), 100*time.Millisecond)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /query HTTP/1.1\r\nHost: x\r\n"); err != nil { // no blank line: headers never end
		t.Fatalf("write: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second)) // a deadline error means the server kept the connection
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on a stalled connection = %v, want io.EOF (server closed it)", err)
	}
}

// TestHTTPServer drives the full HTTP surface: POST /query twice (second is
// a cache hit with identical sha), typed 429 on quota exhaustion, and
// /metrics exposing the cache-hit counter.
func TestHTTPServer(t *testing.T) {
	svc := New(Config{
		Store:  localStore(),
		Obs:    obs.New(),
		Quotas: map[string]float64{"starved": 1e-12},
	})
	srv, err := NewServer("127.0.0.1:0", svc)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()
	url := "http://" + srv.Addr()

	post := func(spec QuerySpec) (*http.Response, []byte) {
		t.Helper()
		body, _ := json.Marshal(spec)
		resp, err := http.Post(url+"/query", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("POST /query: %v", err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read body: %v", err)
		}
		return resp, data
	}

	var cold, warm Response
	hr, body := post(testSpec())
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("cold POST: %d %s", hr.StatusCode, body)
	}
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatalf("cold decode: %v", err)
	}
	hr, body = post(testSpec())
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("warm POST: %d %s", hr.StatusCode, body)
	}
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatalf("warm decode: %v", err)
	}
	if !warm.CacheHit || warm.OutputSHA != cold.OutputSHA {
		t.Fatalf("warm response hit=%v sha=%s, want hit with sha %s", warm.CacheHit, warm.OutputSHA, cold.OutputSHA)
	}

	starved := testSpec()
	starved.Tenant = "starved"
	hr, body = post(starved)
	if hr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quota POST: %d %s, want 429", hr.StatusCode, body)
	}
	var eb struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "quota" {
		t.Fatalf("quota error kind = %q (err %v), want \"quota\"", eb.Kind, err)
	}

	mr, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mr.Body.Close()
	metrics, _ := io.ReadAll(mr.Body)
	if !strings.Contains(string(metrics), "scikey_cache_hit_total 1") {
		t.Fatalf("metrics missing scikey_cache_hit_total 1:\n%s", metrics)
	}
}

// TestHTTPRejectsUnknownCodec: a strategy codec outside none|gzip|zlib|bzip2
// (with an optional block+) is a bad spec, answered 400 at admission — it
// neither counts as submitted nor reaches an executor to fail there. The
// answer names the codec as typed, not the transform stack built from it.
func TestHTTPRejectsUnknownCodec(t *testing.T) {
	o := obs.New()
	svc := New(Config{Store: localStore(), Obs: o})
	srv, err := NewServer("127.0.0.1:0", svc)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()
	for _, c := range []string{"nope", "transform+zlib", "block+block+zlib"} {
		spec := testSpec()
		spec.Codec, spec.Tenant = c, "typo"
		body, _ := json.Marshal(spec)
		resp, err := http.Post("http://"+srv.Addr()+"/query", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("POST /query: %v", err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "unknown strategy codec") {
			t.Fatalf("codec %q: %d %s, want 400 naming the codec", c, resp.StatusCode, data)
		}
		var answer struct{ Error string }
		if err := json.Unmarshal(data, &answer); err != nil ||
			!strings.Contains(answer.Error, fmt.Sprintf("codec %q", c)) || strings.Contains(answer.Error, `"transform+`+c) {
			t.Fatalf("codec %q: %s, want the codec named as typed", c, data)
		}
	}
	lbl := obs.L("tenant", "typo")
	for _, name := range []string{"scikey_tenant_submitted_total", "scikey_tenant_failed_total"} {
		if v := o.R().Counter(name, "", "", lbl).Value(); v != 0 {
			t.Errorf("%s{tenant=typo} = %d, want 0", name, v)
		}
	}
}

// TestHTTPRejectsOversizedBody: a POST /query body over 1 MiB is refused
// after reading 1 MiB of it, whatever it holds.
func TestHTTPRejectsOversizedBody(t *testing.T) {
	svc := New(Config{Store: localStore()})
	srv, err := NewServer("127.0.0.1:0", svc)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()
	body := `{"tenant":"` + strings.Repeat("x", 2<<20) + `"}`
	resp, err := http.Post("http://"+srv.Addr()+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "too large") {
		t.Fatalf("2 MiB body: %d %s, want 400 naming the size", resp.StatusCode, data)
	}
}

// TestSubmitBoundsSpec: a spec past the service's bounds is refused before
// Setup or the cost prior allocates anything for it, and counts against no
// tenant. The tenant's quota is tiny, so a spec that got past the bounds
// would meet a *QuotaError instead.
func TestSubmitBoundsSpec(t *testing.T) {
	o := obs.New()
	svc := New(Config{Obs: o, DefaultQuotaSeconds: 1e-12})
	defer svc.Close()
	base := QuerySpec{Side: 24, Strategy: "baseline", Op: "median", Radius: 1, Splits: 4, Reducers: 2, Tenant: "big"}
	cases := []struct {
		name string
		mut  func(*QuerySpec)
	}{
		{"side", func(s *QuerySpec) { s.Side = 100000 }},
		{"side_over_by_one", func(s *QuerySpec) { s.Side = maxSide + 1 }},
		{"radius_equals_side", func(s *QuerySpec) { s.Radius = s.Side }},
		{"radius_over_side", func(s *QuerySpec) { s.Radius = 1000 }},
		{"splits", func(s *QuerySpec) { s.Splits = 1 << 40 }},
		{"reducers", func(s *QuerySpec) { s.Reducers = maxTasks + 1 }},
	}
	var qe *QuotaError
	for _, tc := range cases {
		spec := base
		tc.mut(&spec)
		if _, err := svc.Submit(spec); err == nil || errors.As(err, &qe) {
			t.Errorf("%s: Submit = %v, want a bounds rejection", tc.name, err)
		}
	}
	// At the bounds a spec is admissible, and meets the quota.
	edge := base
	edge.Radius, edge.Splits, edge.Reducers = edge.Side-1, maxTasks, maxTasks
	if _, err := svc.Submit(edge); !errors.As(err, &qe) {
		t.Errorf("spec at the bounds: Submit = %v, want *QuotaError", err)
	}
	if v := o.R().Counter("scikey_tenant_submitted_total", "", "", obs.L("tenant", "big")).Value(); v != 1 {
		t.Errorf("scikey_tenant_submitted_total{tenant=big} = %d, want 1 (the spec at the bounds)", v)
	}
}

// TestCacheKeyDefaultEquivalence: specs that differ only in how they spell
// a default — or in a field their strategy never reads — build byte-identical
// map output, so they must share a cache key, and the second submission must
// be a cache hit with the first one's sha (under the v1 key each pair ran two
// cold jobs and stored the segments twice). Specs that change the bytes must
// still get distinct keys.
func TestCacheKeyDefaultEquivalence(t *testing.T) {
	mut := func(base QuerySpec, f func(*QuerySpec)) QuerySpec { f(&base); return base }
	paper := QuerySpec{Side: 24, Strategy: "baseline", Op: "median", Radius: 1, Splits: 10, Reducers: 5}
	agg := mut(paper, func(s *QuerySpec) { s.Strategy, s.Curve = "aggregation", "zorder" })
	tr := mut(paper, func(s *QuerySpec) { s.Strategy, s.Codec = "transform", "zlib" })
	// A spec written while the block codec's width was still a spec field:
	// every width framed the same bytes, so the field decodes to nothing and
	// the spec keys as it always did.
	var widthSpec QuerySpec
	wire := `{"side":24,"strategy":"transform","codec":"block+zlib","codec_workers":2,"op":"median","radius":1,"splits":10,"reducers":5}`
	if err := json.Unmarshal([]byte(wire), &widthSpec); err != nil {
		t.Fatal(err)
	}

	same := map[string][2]QuerySpec{
		"splits_0":              {paper, mut(paper, func(s *QuerySpec) { s.Splits = 0 })},
		"reducers_0":            {paper, mut(paper, func(s *QuerySpec) { s.Reducers = 0 })},
		"radius_omitted":        {paper, mut(paper, func(s *QuerySpec) { s.Radius = 0 })},
		"op_omitted":            {paper, mut(paper, func(s *QuerySpec) { s.Op = "" })},
		"curve_omitted":         {agg, mut(agg, func(s *QuerySpec) { s.Curve = "" })},
		"codec_omitted":         {tr, mut(tr, func(s *QuerySpec) { s.Codec = "" })},
		"flush_on_baseline":     {paper, mut(paper, func(s *QuerySpec) { s.Flush = 64 })},
		"flush_on_transform":    {tr, mut(tr, func(s *QuerySpec) { s.Flush = 64 })},
		"curve_on_baseline":     {paper, mut(paper, func(s *QuerySpec) { s.Curve = "hilbert" })},
		"transform_alias":       {tr, mut(paper, func(s *QuerySpec) { s.Codec = "transform+zlib" })},
		"tenant":                {paper, mut(paper, func(s *QuerySpec) { s.Tenant = "alice" })},
		"everything_defaulted":  {paper, {Side: 24, Strategy: "baseline"}},
		"codec_workers_ignored": {mut(tr, func(s *QuerySpec) { s.Codec = "block+zlib" }), widthSpec},
		"combine_nodes_omitted": {mut(paper, func(s *QuerySpec) { s.Op, s.Combine = "max", true }),
			mut(paper, func(s *QuerySpec) { s.Op, s.Combine, s.CombineNodes = "max", true, 3 })},
	}
	for name, pair := range same {
		t.Run("same/"+name, func(t *testing.T) {
			if a, b := pair[0].CacheKey(), pair[1].CacheKey(); a != b || a == "" {
				t.Fatalf("default-equivalent specs got different keys:\n %s\n %s", a, b)
			}
			svc := New(Config{Store: localStore(), Obs: obs.New()})
			defer svc.Close()
			cold, err := svc.Submit(pair[0])
			if err != nil {
				t.Fatal(err)
			}
			warm, err := svc.Submit(pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if cold.CacheHit || !warm.CacheHit {
				t.Errorf("cache hits = %v then %v, want false then true", cold.CacheHit, warm.CacheHit)
			}
			if warm.OutputSHA != cold.OutputSHA {
				t.Errorf("warm sha %s != cold sha %s", warm.OutputSHA, cold.OutputSHA)
			}
		})
	}

	differ := map[string][2]QuerySpec{
		"side":     {paper, mut(paper, func(s *QuerySpec) { s.Side = 32 })},
		"op":       {paper, mut(paper, func(s *QuerySpec) { s.Op = "max" })},
		"strategy": {paper, tr},
		"codec":    {tr, mut(tr, func(s *QuerySpec) { s.Codec = "gzip" })},
		"curve":    {agg, mut(agg, func(s *QuerySpec) { s.Curve = "hilbert" })},
		"flush":    {agg, mut(agg, func(s *QuerySpec) { s.Flush = 64 })},
		"radius":   {paper, mut(paper, func(s *QuerySpec) { s.Radius = 2 })},
		"splits":   {paper, mut(paper, func(s *QuerySpec) { s.Splits = 4 })},
		"reducers": {paper, mut(paper, func(s *QuerySpec) { s.Reducers = 2 })},
		"combine": {mut(paper, func(s *QuerySpec) { s.Op = "max" }),
			mut(paper, func(s *QuerySpec) { s.Op, s.Combine = "max", true })},
		"combine_nodes": {mut(paper, func(s *QuerySpec) { s.Op, s.Combine = "max", true }),
			mut(paper, func(s *QuerySpec) { s.Op, s.Combine, s.CombineNodes = "max", true, 2 })},
		// Every key shape honours its codec, so baseline + zlib is its own
		// job.
		"codec_on_baseline": {paper, mut(paper, func(s *QuerySpec) { s.Codec = "zlib" })},
	}
	for name, pair := range differ {
		if err := pair[1].Validate(); err != nil {
			t.Fatalf("differ/%s uses an invalid spec: %v", name, err)
		}
		if a, b := pair[0].CacheKey(), pair[1].CacheKey(); a == b {
			t.Errorf("differ/%s: byte-changing specs share key %s", name, a)
		}
	}
	if !strings.HasPrefix(paper.CacheKey(), "v2|") {
		t.Errorf("key %q lacks the v2 prefix that retires v1 entries", paper.CacheKey())
	}
	// Specs whose job the codec axis left alone keep the keys their warm
	// entries were stored under.
	const tail = "|op=median|radius=1|splits=10|reducers=5|combine=false|combine-nodes=0"
	for _, c := range []struct {
		spec QuerySpec
		key  string
	}{
		{paper, "v2|side=24|strat=baseline|flush=0" + tail},
		{tr, "v2|side=24|strat=transform+zlib|flush=0" + tail},
		{agg, "v2|side=24|strat=aggregation/zorder|flush=0" + tail},
		{mut(agg, func(s *QuerySpec) { s.Curve, s.Flush = "hilbert", 64 }), "v2|side=24|strat=aggregation/hilbert|flush=64" + tail},
		{mut(paper, func(s *QuerySpec) { s.Strategy = "boxes" }), "v2|side=24|strat=aggregation/boxes|flush=0" + tail},
		{mut(paper, func(s *QuerySpec) { s.Op, s.Combine, s.CombineNodes = "max", true, 2 }),
			"v2|side=24|strat=baseline|flush=0|op=max|radius=1|splits=10|reducers=5|combine=true|combine-nodes=2"},
	} {
		if got := c.spec.CacheKey(); got != c.key {
			t.Errorf("%+v keys as\n %s, stored entries under\n %s", c.spec, got, c.key)
		}
	}
}

// TestHugeFlushThresholdIsOnlyAThreshold: "flush" used to size the
// aggregation buffer up front, so this spec — which core.ValidateQuery
// accepts — asked a resident service for 32 TB before its first cell. It
// must run like any other query: through Setup and the job, every output
// cell equal to the reference (what scijob -verify checks), with the same
// bytes as the default threshold, which no side-32 split reaches either.
func TestHugeFlushThresholdIsOnlyAThreshold(t *testing.T) {
	for _, strategy := range []string{"aggregation", "boxes"} {
		t.Run(strategy, func(t *testing.T) {
			var spec QuerySpec
			wire := `{"side":32,"strategy":"` + strategy + `","flush":1099511627776,"op":"median","radius":1,"splits":4,"reducers":3}`
			if err := json.Unmarshal([]byte(wire), &spec); err != nil {
				t.Fatal(err)
			}
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			fs, qcfg, strat, err := spec.Setup()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := core.RunQuery(fs, qcfg, strat, cluster.Paper(), true)
			if err != nil {
				t.Fatal(err)
			}
			field := &workload.Field{Extent: qcfg.DS.Extent, Name: qcfg.DS.Var.Name}
			want := scihadoop.Reference(field, qcfg.DS.Extent, qcfg.Radius, qcfg.Op)
			if len(rep.Output) != len(want) {
				t.Fatalf("%d output cells, reference has %d", len(rep.Output), len(want))
			}
			for k, w := range want {
				if rep.Output[k] != w {
					t.Fatalf("cell %s = %d, reference %d", k, rep.Output[k], w)
				}
			}
			def := spec
			def.Flush = 0
			if huge, usual := oneShotSHA(t, spec), oneShotSHA(t, def); huge != usual {
				t.Errorf("sha %s at flush 1<<40, %s at the default threshold", huge, usual)
			}
		})
	}
}

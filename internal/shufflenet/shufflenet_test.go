package shufflenet

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scikey/internal/backoff"
	"scikey/internal/faults"
)

// testBytes builds a deterministic payload that differs at every offset
// window, so truncation/resume bugs can't produce a false match.
func testBytes(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*31 + seed ^ byte(i>>8)
	}
	return b
}

func newTestService(t testing.TB, cfg Config) *Service {
	t.Helper()
	s := NewService(cfg)
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func injector(t *testing.T, spec string) *faults.Injector {
	t.Helper()
	in, err := faults.NewFromSpec(spec)
	if err != nil {
		t.Fatalf("NewFromSpec(%q): %v", spec, err)
	}
	return in
}

// TestRoundTrip publishes multi-chunk segments and fetches them back over
// loopback TCP.
func TestRoundTrip(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		s := newTestService(t, Config{Nodes: 3, ChunkBytes: 64})
		want := make(map[[2]int][]byte)
		for m := 0; m < 5; m++ {
			parts := [][]byte{
				testBytes(200+m*37, byte(m)), // ~4 chunks
				nil,                          // empty partition
				testBytes(63, byte(m+1)),     // sub-chunk
			}
			s.Publish(m, 0, parts)
			for p := range parts {
				want[[2]int{m, p}] = parts[p]
			}
		}
		for m := 0; m < 5; m++ {
			for p := 0; p < 3; p++ {
				res, err := s.Fetch(context.Background(), m, p)
				if err != nil {
					t.Fatalf("Fetch(%d,%d): %v", m, p, err)
				}
				if !bytes.Equal(res.Data, want[[2]int{m, p}]) {
					t.Fatalf("Fetch(%d,%d): got %d bytes, want %d", m, p, len(res.Data), len(want[[2]int{m, p}]))
				}
				if res.Attempt != 0 {
					t.Fatalf("Fetch(%d,%d): attempt %d, want 0", m, p, res.Attempt)
				}
			}
		}
		if got := s.Metrics(); got.Fetches != 15 || got.Retries != 0 || got.WastedBytes != 0 {
			t.Fatalf("metrics after clean run: %+v", got)
		}
	})
}

// TestClosedServiceRefusesDial: once Close has run, a fetch is refused at
// the dial — the closed node's port is not dialed at all.
func TestClosedServiceRefusesDial(t *testing.T) {
	s := newTestService(t, Config{Nodes: 1, FetchAttempts: 1})
	s.Publish(0, 0, [][]byte{testBytes(10, 1)})
	s.Close()
	_, err := s.Fetch(context.Background(), 0, 0)
	if !errors.Is(err, errRefused) {
		t.Fatalf("fetch from a closed service: %v, want errRefused", err)
	}
}

// TestFetchNotPublished exhausts the budget against a node that never got
// the segment and surfaces a typed FetchError.
func TestFetchNotPublished(t *testing.T) {
	s := newTestService(t, Config{Nodes: 2, FetchAttempts: 3})
	_, err := s.Fetch(context.Background(), 1, 0)
	var fe *FetchError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *FetchError", err)
	}
	if fe.Node != 1 || fe.MapTask != 1 || fe.Partition != 0 || fe.Attempts != 3 {
		t.Fatalf("FetchError fields: %+v", fe)
	}
	if !errors.Is(err, errNotPublished) {
		t.Fatalf("cause = %v, want errNotPublished", fe.Err)
	}
	if got := s.Metrics(); got.SegmentsLost != 1 || got.Retries != 2 {
		t.Fatalf("metrics: %+v", got)
	}
}

// TestFaultRecovery runs each injected server-side fault once on fetch
// attempt 0 and checks the retry recovers the exact bytes.
func TestFaultRecovery(t *testing.T) {
	cases := []struct {
		name string
		spec string
	}{
		{"refuse", "net:0:refuse@0"},
		{"cut", "net:0:cut@0"},
		{"stall", "net:0:stall=300ms@0"},
		{"truncate", "net:0:truncate@0"},
		{"corrupt", "net:0:corrupt@0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestService(t, Config{
				Nodes:        2,
				ChunkBytes:   32,
				FetchTimeout: 100 * time.Millisecond,
				Injector:     injector(t, tc.spec),
			})
			want := testBytes(300, 7) // ~10 chunks
			s.Publish(0, 4, [][]byte{want})
			res, err := s.Fetch(context.Background(), 0, 0)
			if err != nil {
				t.Fatalf("Fetch: %v", err)
			}
			if !bytes.Equal(res.Data, want) {
				t.Fatalf("data mismatch: got %d bytes, want %d", len(res.Data), len(want))
			}
			if res.Attempt != 4 {
				t.Fatalf("attempt = %d, want 4", res.Attempt)
			}
			m := s.Metrics()
			if m.Retries == 0 {
				t.Fatalf("expected retries, metrics %+v", m)
			}
			// cut and truncate leave a verified prefix: the retry must resume,
			// not restart.
			if tc.name == "cut" || tc.name == "truncate" {
				if !res.Resumed || m.Resumes == 0 || m.ResumedBytes == 0 {
					t.Fatalf("%s: expected resumed fetch, res %+v metrics %+v", tc.name, res, m)
				}
				if res.WastedBytes != 0 {
					t.Fatalf("%s: resume should waste nothing, wasted %d", tc.name, res.WastedBytes)
				}
			}
			if tc.name == "corrupt" && m.CRCErrors == 0 {
				t.Fatalf("corrupt: expected a chunk CRC rejection")
			}
		})
	}
}

// TestByteFaultsSkipEmptySegments: cut, truncate and corrupt act on a
// segment's bytes, so on an empty segment — of a published task, or a
// partition past its row — they neither fire nor are recorded, and the
// fetch succeeds on its first try; refuse acts on the connection and still
// fires there.
func TestByteFaultsSkipEmptySegments(t *testing.T) {
	for _, action := range []string{"cut", "truncate", "corrupt", "refuse"} {
		t.Run(action, func(t *testing.T) {
			in := injector(t, "net:0:"+action+"@0")
			s := newTestService(t, Config{Nodes: 2, FetchTimeout: 100 * time.Millisecond, Injector: in})
			s.Publish(0, 0, [][]byte{nil})
			for _, part := range []int{0, 1} {
				res, err := s.Fetch(context.Background(), 0, part)
				if err != nil || len(res.Data) != 0 {
					t.Fatalf("Fetch(0, %d) = %d B, %v; want the empty segment", part, len(res.Data), err)
				}
			}
			want := 0
			if action == "refuse" {
				want = 2 // once per fetch, each then retried
			}
			if fired, retries := in.Fired()["net/"+action], s.Metrics().Retries; fired != want || retries != int64(want) {
				t.Errorf("%s fired %d times for %d fetch retries; want %d", action, fired, retries, want)
			}
		})
	}
}

// TestFetchExhaustion: a fault on every attempt runs the budget out and
// reports the segment lost, with the verified prefix charged as waste.
func TestFetchExhaustion(t *testing.T) {
	s := newTestService(t, Config{
		Nodes:            2,
		ChunkBytes:       32,
		FetchAttempts:    3,
		BreakerThreshold: -1,
		Injector:         injector(t, "net:0:refuse@*"),
	})
	s.Publish(0, 0, [][]byte{testBytes(100, 1)})
	_, err := s.Fetch(context.Background(), 0, 0)
	var fe *FetchError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *FetchError", err)
	}
	if fe.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", fe.Attempts)
	}
	if got := s.Metrics(); got.SegmentsLost != 1 {
		t.Fatalf("metrics: %+v", got)
	}
}

// TestNodeDownRecovers: a node-down window refuses dials, then lifts; the
// fetch outlasts it on the backoff schedule.
func TestNodeDownRecovers(t *testing.T) {
	s := newTestService(t, Config{
		Nodes:            2,
		FetchAttempts:    50,
		Backoff:          backoff.Policy{Base: 20 * time.Millisecond, Max: 20 * time.Millisecond},
		BreakerThreshold: -1,
		Injector:         injector(t, "node:0:down=60ms"),
	})
	want := testBytes(100, 3)
	s.Publish(0, 0, [][]byte{want})
	res, err := s.Fetch(context.Background(), 0, 0)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if !bytes.Equal(res.Data, want) {
		t.Fatalf("data mismatch after node-down window")
	}
	if s.Metrics().Retries == 0 {
		t.Fatalf("expected retries through the outage")
	}
}

// TestRepublishResetsResume: a verified prefix of a dead map attempt is
// discarded — and counted as waste — when the server now holds a newer
// attempt.
func TestRepublishResetsResume(t *testing.T) {
	s := newTestService(t, Config{
		Nodes:      1,
		ChunkBytes: 8,
		Injector:   injector(t, "net:0:cut@0"),
	})
	old := testBytes(64, 1)
	s.Publish(0, 0, [][]byte{old})

	// Attempt 0 is cut mid-chunk: fetchOnce fails with a verified prefix.
	st := &fetchState{attempt: -1}
	if err := s.fetchOnce(context.Background(), 0, 0, 0, 0, st); err == nil {
		t.Fatalf("expected the injected cut to fail the first exchange")
	}
	if len(st.buf) == 0 || len(st.buf) >= len(old) {
		t.Fatalf("verified prefix = %d bytes, want partial", len(st.buf))
	}
	prefix := len(st.buf)

	// The producer re-executes and republishes different bytes as attempt 1.
	renewed := testBytes(64, 9)
	s.Publish(0, 1, [][]byte{renewed})

	if err := s.fetchOnce(context.Background(), 0, 0, 0, 1, st); err != nil {
		t.Fatalf("fetchOnce after republish: %v", err)
	}
	if !bytes.Equal(st.buf, renewed) {
		t.Fatalf("got old-attempt bytes after republish")
	}
	if st.attempt != 1 {
		t.Fatalf("attempt = %d, want 1", st.attempt)
	}
	if st.wasted != int64(prefix) {
		t.Fatalf("wasted = %d, want the discarded prefix %d", st.wasted, prefix)
	}
}

// TestBreakerStateMachine drives one breaker through closed → open →
// half-open → open → half-open → open (probe abandoned) → half-open →
// closed.
func TestBreakerStateMachine(t *testing.T) {
	var m Metrics
	b := newBreaker(0, 2, backoff.Policy{Base: 20 * time.Millisecond, Max: 20 * time.Millisecond}, &m)
	allowed := func() bool { ok, _ := b.allow(); return ok }
	probe := func() bool { ok, probe := b.allow(); return ok && probe }

	if !allowed() {
		t.Fatal("closed breaker must allow")
	}
	b.failure()
	if !allowed() {
		t.Fatal("one failure below threshold must not open")
	}
	b.failure() // threshold reached: opens
	if allowed() {
		t.Fatal("open breaker must refuse")
	}
	if m.BreakerTrips.Load() != 1 {
		t.Fatalf("trips = %d, want 1", m.BreakerTrips.Load())
	}

	time.Sleep(25 * time.Millisecond) // past reopenAt (jitter keeps delay < base)
	if !probe() {
		t.Fatal("breaker must half-open after the reopen delay, admitting a probe")
	}
	if allowed() {
		t.Fatal("only one half-open probe may fly")
	}
	b.failure() // probe fails: re-open
	if allowed() {
		t.Fatal("failed probe must re-open the breaker")
	}
	if m.BreakerTrips.Load() != 2 {
		t.Fatalf("trips = %d, want 2", m.BreakerTrips.Load())
	}

	time.Sleep(25 * time.Millisecond)
	if !probe() {
		t.Fatal("breaker must half-open again")
	}
	b.abandon(true) // probe canceled: no outcome, so no new trip and no wait
	if !probe() {
		t.Fatal("an abandoned probe must hand the probe to the next caller")
	}
	if m.BreakerTrips.Load() != 2 {
		t.Fatalf("trips = %d after an abandoned probe, want 2", m.BreakerTrips.Load())
	}
	b.success() // probe succeeds: close
	if !allowed() || !allowed() {
		t.Fatal("closed breaker must allow freely again")
	}
}

// TestCanceledProbeReleasesBreaker: the half-open probe of a tripped node is
// canceled mid-stall, as a losing speculative twin's fetch is. It reports no
// outcome, so the breaker must not stay half-open: the next fetch from that
// node is the new probe and succeeds.
func TestCanceledProbeReleasesBreaker(t *testing.T) {
	s := newTestService(t, Config{
		Nodes:            1,
		FetchAttempts:    1,
		FetchTimeout:     5 * time.Second,
		Backoff:          backoff.Policy{Base: 20 * time.Millisecond, Max: 20 * time.Millisecond},
		BreakerThreshold: 1,
		Injector:         injector(t, "net:0:refuse@*;net:1:stall=5s@*"),
	})
	for m := 0; m < 3; m++ {
		s.Publish(m, 0, [][]byte{testBytes(40, byte(m))})
	}
	if _, err := s.Fetch(context.Background(), 0, 0); err == nil {
		t.Fatal("refused fetch must fail")
	}
	if trips := s.Metrics().BreakerTrips; trips != 1 {
		t.Fatalf("trips = %d after one refused fetch, want 1", trips)
	}
	time.Sleep(25 * time.Millisecond) // past reopenAt: the next fetch is the probe

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Fetch(ctx, 1, 0)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // the probe is stalled on the server
	cancel()
	if err := <-done; !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled probe: %v, want ErrCanceled", err)
	}

	res, err := s.Fetch(context.Background(), 2, 0)
	if err != nil {
		t.Fatalf("fetch after a canceled probe: %v", err)
	}
	if !bytes.Equal(res.Data, testBytes(40, 2)) {
		t.Fatal("fetch after a canceled probe returned wrong bytes")
	}
	if trips := s.Metrics().BreakerTrips; trips != 1 {
		t.Fatalf("trips = %d, want 1: a canceled probe is not a node failure", trips)
	}
}

// TestBreakerIsolation: a dead node trips its breaker while fetches from the
// healthy node keep flowing untouched.
func TestBreakerIsolation(t *testing.T) {
	s := newTestService(t, Config{
		Nodes:            2,
		FetchAttempts:    5,
		BreakerThreshold: 2,
		Injector:         injector(t, "node:0:down=10s"),
	})
	sick := testBytes(50, 1)
	healthy := testBytes(50, 2)
	s.Publish(0, 0, [][]byte{sick})    // node 0
	s.Publish(1, 0, [][]byte{healthy}) // node 1

	if _, err := s.Fetch(context.Background(), 0, 0); err == nil {
		t.Fatal("fetch from downed node must fail")
	}
	m := s.Metrics()
	if m.BreakerTrips == 0 || m.BreakerSkips == 0 {
		t.Fatalf("expected breaker trips and skips, metrics %+v", m)
	}
	res, err := s.Fetch(context.Background(), 1, 0)
	if err != nil {
		t.Fatalf("healthy node fetch: %v", err)
	}
	if !bytes.Equal(res.Data, healthy) {
		t.Fatal("healthy node returned wrong bytes")
	}
}

// TestPerNodeConcurrencyBound: with one fetch slot and a per-request stall,
// concurrent fetches against a node serialize.
func TestPerNodeConcurrencyBound(t *testing.T) {
	const stall = 30 * time.Millisecond
	s := newTestService(t, Config{
		Nodes:           1,
		PerNodeFetchers: 1,
		FetchTimeout:    2 * time.Second,
		Injector:        injector(t, "net:*:stall=30ms@*"),
	})
	var inFlight, peak atomic.Int32
	// Observe server-side concurrency through the stall window.
	for m := 0; m < 4; m++ {
		s.Publish(m, 0, [][]byte{testBytes(40, byte(m))})
	}
	start := time.Now()
	var wg sync.WaitGroup
	for m := 0; m < 4; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			if _, err := s.Fetch(context.Background(), m, 0); err != nil {
				t.Errorf("Fetch(%d): %v", m, err)
			}
			inFlight.Add(-1)
		}(m)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 4*stall {
		t.Fatalf("4 stalled fetches through 1 slot took %v, want >= %v (not serialized)", elapsed, 4*stall)
	}
}

// TestFetchCanceled: canceling the context abandons the fetch mid-backoff.
func TestFetchCanceled(t *testing.T) {
	s := newTestService(t, Config{
		Nodes:         1,
		FetchAttempts: 100,
		Backoff:       backoff.Policy{Base: time.Hour, Max: time.Hour},
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Fetch(ctx, 0, 0) // never published: retries forever
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fetch did not honor cancellation")
	}
}

// TestProbabilisticStallDeterministic: a seeded %prob schedule injects the
// same faults on a replay, fetch for fetch.
func TestProbabilisticStallDeterministic(t *testing.T) {
	run := func() int64 {
		s := newTestService(t, Config{
			Nodes:        2,
			ChunkBytes:   32,
			FetchTimeout: 50 * time.Millisecond,
			Injector:     injector(t, "seed=11;net:*:cut@*%0.4"),
		})
		for m := 0; m < 6; m++ {
			s.Publish(m, 0, [][]byte{testBytes(100, byte(m))})
		}
		for m := 0; m < 6; m++ {
			if _, err := s.Fetch(context.Background(), m, 0); err != nil {
				t.Fatalf("Fetch(%d): %v", m, err)
			}
		}
		return s.Metrics().Retries
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("retry counts differ across replays: %d vs %d", a, b)
	}
	if a == 0 {
		t.Fatalf("seed 11 at 40%% should cut at least one fetch")
	}
}

package clusterd

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scikey/internal/faults"
	"scikey/internal/mapreduce"
	"scikey/internal/obs"
)

// stubRunner is a scriptable in-process Runner: fast deterministic results,
// optional per-call hooks for blocking and failure.
type stubRunner struct {
	mu    sync.Mutex
	calls []string
	hook  func(ctx context.Context, phase string, task, attempt int, fetch mapreduce.RemoteFetch) (*mapreduce.RemoteResult, error)
}

func (r *stubRunner) Run(ctx context.Context, phase string, task, attempt int, fetch mapreduce.RemoteFetch) (*mapreduce.RemoteResult, error) {
	r.mu.Lock()
	r.calls = append(r.calls, fmt.Sprintf("%s/%d/%d", phase, task, attempt))
	hook := r.hook
	r.mu.Unlock()
	if hook != nil {
		return hook(ctx, phase, task, attempt, fetch)
	}
	return &mapreduce.RemoteResult{Output: []byte(fmt.Sprintf("%s:%d:%d", phase, task, attempt))}, nil
}

// dialClient connects a driver Client to c the way scijob and bench/ do; it
// is closed (before the coordinator) when the test ends.
func dialClient(t testing.TB, c *Coordinator) *Client {
	t.Helper()
	cl, err := Dial(ClientConfig{Addr: c.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// startCluster boots a coordinator on a fresh journal, a dialed driver
// Client and n workers sharing one stub runner; everything stops when the
// test ends.
func startCluster(t testing.TB, cfg Config, n int, runner Runner) (*Coordinator, *Client, []*Worker) {
	t.Helper()
	cfg.Journal = filepath.Join(t.TempDir(), "coord.journal")
	c, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	cl := dialClient(t, c)
	workers := make([]*Worker, n)
	for i := range workers {
		w := NewWorker(WorkerConfig{
			Addr:  c.Addr(),
			Build: func(spec []byte) (Runner, error) { return runner, nil },
		})
		workers[i] = w
		go w.Run()
		t.Cleanup(w.Stop)
	}
	return c, cl, workers
}

func TestClusterGrantRoundTrip(t *testing.T) {
	runner := &stubRunner{}
	_, cl, _ := startCluster(t, Config{HeartbeatEvery: 20 * time.Millisecond}, 2, runner)

	// Concurrent grants spread across the workers and all complete.
	var wg sync.WaitGroup
	results := make([]*mapreduce.RemoteResult, 6)
	errs := make([]error, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = cl.RunRemote(mapreduce.PhaseMap, i, 0, nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 6; i++ {
		if errs[i] != nil {
			t.Fatalf("grant %d: %v", i, errs[i])
		}
		want := fmt.Sprintf("map:%d:0", i)
		if string(results[i].Output) != want {
			t.Errorf("grant %d returned %q, want %q", i, results[i].Output, want)
		}
	}
}

func TestSegmentFetchThroughCoordinator(t *testing.T) {
	fetched := make(chan string, 1)
	runner := &stubRunner{
		hook: func(ctx context.Context, phase string, task, attempt int, fetch mapreduce.RemoteFetch) (*mapreduce.RemoteResult, error) {
			if phase == mapreduce.PhaseReduce {
				data, att, err := fetch(2, 0)
				if err != nil {
					return nil, err
				}
				fetched <- fmt.Sprintf("%s/%d", data, att)
			}
			return &mapreduce.RemoteResult{}, nil
		},
	}
	_, cl, _ := startCluster(t, Config{HeartbeatEvery: 20 * time.Millisecond}, 1, runner)

	cl.PublishRemote(2, 0, [][]byte{[]byte("seg-old")})
	cl.PublishRemote(2, 3, [][]byte{[]byte("seg-new")}) // recovery republish wins
	cl.PublishRemote(2, 1, [][]byte{[]byte("seg-mid")}) // older never clobbers newer

	if _, err := cl.RunRemote(mapreduce.PhaseReduce, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if got := <-fetched; got != "seg-new/3" {
		t.Errorf("reduce fetched %q, want \"seg-new/3\"", got)
	}

	// Fetching an unpublished map task fails cleanly. The hook is swapped
	// under the runner's lock: a worker goroutine started for an earlier
	// grant may read it concurrently.
	runner.mu.Lock()
	runner.hook = func(ctx context.Context, phase string, task, attempt int, fetch mapreduce.RemoteFetch) (*mapreduce.RemoteResult, error) {
		_, _, err := fetch(99, 0)
		return nil, err
	}
	runner.mu.Unlock()
	if _, err := cl.RunRemote(mapreduce.PhaseReduce, 1, 0, nil); err == nil || !strings.Contains(err.Error(), "not published") {
		t.Errorf("unpublished fetch error = %v", err)
	}
}

func TestWorkerDeathFailsLeaseImmediately(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	runner := &stubRunner{
		hook: func(ctx context.Context, phase string, task, attempt int, fetch mapreduce.RemoteFetch) (*mapreduce.RemoteResult, error) {
			started <- struct{}{}
			<-block
			return &mapreduce.RemoteResult{}, nil
		},
	}
	_, cl, workers := startCluster(t, Config{HeartbeatEvery: 50 * time.Millisecond}, 1, runner)

	done := make(chan error, 1)
	go func() {
		_, err := cl.RunRemote(mapreduce.PhaseMap, 0, 0, nil)
		done <- err
	}()
	<-started
	workers[0].Stop() // connection drops: no need to wait for the TTL
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "lost") {
			t.Errorf("lease loss error = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lease loss not detected after worker connection dropped")
	}
	close(block)
}

func TestGracefulDrainCompletesInFlight(t *testing.T) {
	o := obs.New()
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	runner := &stubRunner{
		hook: func(ctx context.Context, phase string, task, attempt int, fetch mapreduce.RemoteFetch) (*mapreduce.RemoteResult, error) {
			started <- struct{}{}
			<-block
			return &mapreduce.RemoteResult{Output: []byte("done")}, nil
		},
	}
	c, cl, workers := startCluster(t, Config{HeartbeatEvery: 20 * time.Millisecond, Obs: o}, 1, runner)

	done := make(chan error, 1)
	go func() {
		rr, err := cl.RunRemote(mapreduce.PhaseMap, 0, 0, nil)
		if err == nil && string(rr.Output) != "done" {
			err = fmt.Errorf("unexpected output %q", rr.Output)
		}
		done <- err
	}()
	<-started

	// Drain mid-attempt: the attempt must still complete (not expire, not
	// get revoked), and the worker must then deregister cleanly.
	workers[0].Drain()
	time.Sleep(50 * time.Millisecond) // a few heartbeats pass while drained
	close(block)
	if err := <-done; err != nil {
		t.Fatalf("in-flight attempt during drain: %v", err)
	}

	deadline := time.After(5 * time.Second)
	for {
		if c.gWorkers.Value() == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("drained worker never deregistered")
		case <-time.After(5 * time.Millisecond):
		}
	}
	reg := o.R()
	if n := reg.Counter("scikey_cluster_lease_transitions_total", "lease state transitions", "", obs.L("state", "expired")).Value(); n != 0 {
		t.Errorf("%d leases expired during a clean drain, want 0", n)
	}
	if n := reg.Counter("scikey_cluster_lease_transitions_total", "lease state transitions", "", obs.L("state", "completed")).Value(); n != 1 {
		t.Errorf("completed transitions = %d, want 1", n)
	}
}

// TestStartRequiresJournal: there is no in-memory coordinator.
func TestStartRequiresJournal(t *testing.T) {
	if c, err := Start(Config{Addr: "127.0.0.1:0"}); err == nil {
		c.Close()
		t.Fatal("Start without a journal succeeded")
	}
}

// TestFailedAppendClosesDone: an append that fails ends the incarnation on
// its own, and Done tells the daemon waiting on it.
func TestFailedAppendClosesDone(t *testing.T) {
	crashHook = func(m message, _ int64) error {
		if m.kind == jkWorker {
			return errors.New("fsync failed")
		}
		return nil
	}
	t.Cleanup(func() { crashHook = nil })
	c, err := Start(Config{Journal: filepath.Join(t.TempDir(), "coord.journal"), HeartbeatEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := NewWorker(WorkerConfig{Addr: c.Addr(), Build: func([]byte) (Runner, error) { return &stubRunner{}, nil }})
	go w.Run()
	defer w.Stop()
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the coordinator still runs 5 s after its registration append failed")
	}
}

// TestDriverDropAtFinishDoesNotRerun drops the driver's connection between
// an attempt's settle and the send of its outcome. The send fails, so the
// outcome stays journaled; the Client redials and re-sends the submission,
// and the coordinator answers it from the journal without running the
// attempt again.
func TestDriverDropAtFinishDoesNotRerun(t *testing.T) {
	var coord atomic.Pointer[Coordinator]
	var dropped atomic.Bool
	crashHook = func(m message, _ int64) error {
		c := coord.Load()
		if m.kind != jkSettle || c == nil || dropped.Swap(true) {
			return nil
		}
		// The append runs under c.mu, before the outcome is sent.
		workers := map[net.Conn]bool{}
		for _, w := range c.workers {
			workers[w.conn] = true
		}
		for conn := range c.peers {
			if !workers[conn] {
				conn.Close()
			}
		}
		return nil
	}
	t.Cleanup(func() { crashHook = nil })
	runner := &stubRunner{}
	c, cl, _ := startCluster(t, Config{HeartbeatEvery: 20 * time.Millisecond}, 1, runner)
	coord.Store(c)

	rr, err := cl.RunRemote(mapreduce.PhaseMap, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !dropped.Load() {
		t.Fatal("the driver connection was never dropped")
	}
	if got := string(rr.Output); got != "map:3:0" {
		t.Errorf("outcome = %q, want map:3:0", got)
	}
	runner.mu.Lock()
	calls := runner.calls
	runner.mu.Unlock()
	if len(calls) != 1 {
		t.Errorf("attempt ran %d times (%v), want once", len(calls), calls)
	}
	// The redelivery is journaled right after its send.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		c.mu.Lock()
		n := len(c.state.outcomes)
		c.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d outcomes still undelivered", n)
		}
	}
}

// TestWorkerStopDuringBuild: a worker stopped while its first registration
// is still building the job must not take up the session that registration
// opens. Build returns only once Stop has, and Run must then return with the
// coordinator still up, rather than serve that session until the
// coordinator hangs up.
func TestWorkerStopDuringBuild(t *testing.T) {
	c, err := Start(Config{Journal: filepath.Join(t.TempDir(), "coord.journal"), HeartbeatEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	building, stopped := make(chan struct{}), make(chan struct{})
	w := NewWorker(WorkerConfig{
		Addr: c.Addr(),
		Build: func([]byte) (Runner, error) {
			close(building)
			<-stopped
			return &stubRunner{}, nil
		},
	})
	ran := make(chan error, 1)
	go func() { ran <- w.Run() }()
	<-building
	w.Stop()
	close(stopped)
	select {
	case err := <-ran:
		if err != nil {
			t.Errorf("Run after Stop: %v", err)
		}
	case <-time.After(2 * time.Second):
		w.mu.Lock()
		sess := w.sess
		w.mu.Unlock()
		if sess != nil {
			sess.close() // let Run return before the test ends
		}
		<-ran
		t.Fatal("Run still serving 2 s after Stop, with the coordinator up")
	}
}

// rawWorker speaks the wire protocol by hand: register, take one grant,
// send Started, then go silent (a SIGSTOP stand-in). After the coordinator
// expires the lease, it reports completion anyway — which must be dropped
// as stale.
func TestHeartbeatLapseExpiresAndStaleCompletionIsDropped(t *testing.T) {
	o := obs.New()
	c, err := Start(Config{Journal: filepath.Join(t.TempDir(), "coord.journal"), HeartbeatEvery: 20 * time.Millisecond, LeaseTTL: 60 * time.Millisecond, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := dialClient(t, c)

	conn, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeMsg(conn, kindHello, helloMsg{PID: 12345}); err != nil {
		t.Fatal(err)
	}
	msg, err := readMsg(conn)
	if err != nil || msg.kind != kindWelcome {
		t.Fatalf("welcome: kind=%d err=%v", msg.kind, err)
	}
	var welcome welcomeMsg
	if err := msg.decode(&welcome); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := cl.RunRemote(mapreduce.PhaseMap, 0, 0, nil)
		done <- err
	}()

	msg, err = readMsg(conn)
	if err != nil || msg.kind != kindGrant {
		t.Fatalf("grant: kind=%d err=%v", msg.kind, err)
	}
	var grant grantMsg
	if err := msg.decode(&grant); err != nil {
		t.Fatal(err)
	}
	if err := writeMsg(conn, kindStarted, startedMsg{Lease: grant.Lease}); err != nil {
		t.Fatal(err)
	}

	// Silence. No heartbeats: the lease must lapse and fail the waiter.
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "heartbeat lapsed") {
			t.Fatalf("lease expiry error = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lease never expired without heartbeats")
	}

	// The worker "wakes up" and completes the long-revoked lease.
	err = writeMsg(conn, kindComplete, completeMsg{Lease: grant.Lease, Result: &mapreduce.RemoteResult{Output: []byte("zombie")}})
	if err != nil {
		t.Fatal(err)
	}
	stale := o.R().Counter("scikey_cluster_lease_transitions_total", "lease state transitions", "", obs.L("state", "stale"))
	deadline := time.After(5 * time.Second)
	for stale.Value() == 0 {
		select {
		case <-deadline:
			t.Fatal("stale completion never recorded as dropped")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestProcFaultSignalsWorkerOnStarted(t *testing.T) {
	inj, err := faults.NewFromSpec("proc:0.0:kill@0")
	if err != nil {
		t.Fatal(err)
	}
	var killedPID atomic.Int64
	var gotFault atomic.Value
	block := make(chan struct{})
	runner := &stubRunner{
		hook: func(ctx context.Context, phase string, task, attempt int, fetch mapreduce.RemoteFetch) (*mapreduce.RemoteResult, error) {
			<-block
			return &mapreduce.RemoteResult{}, nil
		},
	}
	_, cl, _ := startCluster(t, Config{
		HeartbeatEvery: 20 * time.Millisecond,
		Faults:         inj,
		Signal: func(pid int, f *faults.ProcFault) {
			killedPID.Store(int64(pid))
			gotFault.Store(f.Action)
			close(block) // let the attempt end instead of really dying
		},
	}, 1, runner)

	if _, err := cl.RunRemote(mapreduce.PhaseMap, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if killedPID.Load() == 0 {
		t.Fatal("proc fault never fired on Started")
	}
	if gotFault.Load() != faults.ActKill {
		t.Errorf("fault action = %v, want kill", gotFault.Load())
	}
	if got := inj.Fired()["proc/kill"]; got != 1 {
		t.Errorf("proc/kill fired %d times, want 1", got)
	}
}

func TestCanceledGrantIsRevoked(t *testing.T) {
	sawCancel := make(chan struct{}, 1)
	started := make(chan struct{}, 1)
	runner := &stubRunner{
		hook: func(ctx context.Context, phase string, task, attempt int, fetch mapreduce.RemoteFetch) (*mapreduce.RemoteResult, error) {
			started <- struct{}{}
			<-ctx.Done()
			sawCancel <- struct{}{}
			return nil, mapreduce.ErrAttemptCanceled
		},
	}
	_, cl, _ := startCluster(t, Config{HeartbeatEvery: 20 * time.Millisecond}, 1, runner)

	var stop atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := cl.RunRemote(mapreduce.PhaseMap, 0, 0, stop.Load)
		done <- err
	}()
	<-started
	stop.Store(true)
	if err := <-done; !errors.Is(err, mapreduce.ErrAttemptCanceled) {
		t.Fatalf("canceled grant returned %v", err)
	}
	select {
	case <-sawCancel:
	case <-time.After(5 * time.Second):
		t.Fatal("revocation never reached the worker-side attempt")
	}
}

// TestRevokeAbandonsPendingSegmentFetch: a segment request the coordinator
// has not answered yet ends when its lease is revoked, instead of holding
// the attempt until the answer or the session's end.
func TestRevokeAbandonsPendingSegmentFetch(t *testing.T) {
	worker, coord := net.Pipe()
	t.Cleanup(func() { worker.Close(); coord.Close() })
	go func() { // the coordinator reads requests and never answers
		for {
			if _, err := readMsg(coord); err != nil {
				return
			}
		}
	}()
	s := &session{peer: &peer{conn: worker}, segWaiters: make(map[int]chan segDataMsg), done: make(chan struct{})}
	lease, revoke := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := s.fetch(lease, 0, 0)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	revoke()
	select {
	case err := <-done:
		if !errors.Is(err, mapreduce.ErrAttemptCanceled) {
			t.Fatalf("revoked fetch returned %v, want ErrAttemptCanceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("revoked fetch still waiting for its answer")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.segWaiters) != 0 {
		t.Fatalf("%d segment waiters left behind", len(s.segWaiters))
	}
}

func TestFrameCRCRejectsCorruption(t *testing.T) {
	// A frame whose payload was bit-flipped in flight must be rejected by
	// the reader, not parsed.
	var buf strings.Builder
	if err := writeMsg(&buf, kindHello, helloMsg{PID: 1}); err != nil {
		t.Fatal(err)
	}
	raw := []byte(buf.String())
	raw[len(raw)-1] ^= 0x40
	if _, err := readMsg(strings.NewReader(string(raw))); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("corrupted frame error = %v", err)
	}

	// An oversized length field is refused before allocation.
	var hdr [9]byte
	hdr[0] = kindHello
	binary.BigEndian.PutUint32(hdr[1:], maxFrame+1)
	binary.BigEndian.PutUint32(hdr[5:], crc32.ChecksumIEEE(nil))
	if _, err := readMsg(strings.NewReader(string(hdr[:]))); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized frame error = %v", err)
	}
}

// TestForfeitCauses pins the one forfeit rule over its three causes — a
// worker re-registering without claiming the lease, its connection dropping,
// and its heartbeats lapsing past the TTL — end to end: a hand-driven wire
// worker takes one grant from a journaled coordinator, the cause happens,
// and the journaled settle, the error and waste footprint the driver Client
// receives, and the lease-transition counters must all agree. Expectations
// were captured at 1e89eed, before the three forfeit copies were folded.
func TestForfeitCauses(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ttl   time.Duration
		cause func(t *testing.T, addr string, conn net.Conn, worker int)
		state string
		err   string
	}{
		{"reregistered without claim", 5 * time.Second,
			func(t *testing.T, addr string, _ net.Conn, worker int) {
				again, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { again.Close() })
				if err := writeMsg(again, kindHello, helloMsg{PID: 2, Worker: worker}); err != nil {
					t.Fatal(err)
				}
			},
			"lost", "clusterd: lease 0 lost: worker 0 re-registered without it"},
		{"connection dropped", 5 * time.Second,
			func(_ *testing.T, _ string, conn net.Conn, _ int) { conn.Close() },
			"lost", "clusterd: lease 0 lost: worker 0 connection dropped"},
		{"ttl lapsed", 60 * time.Millisecond,
			func(*testing.T, string, net.Conn, int) {}, // silence: no heartbeat ever renews
			"expired", "clusterd: lease 0 expired: worker 0 heartbeat lapsed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.New()
			journal := filepath.Join(t.TempDir(), "coord.journal")
			c, err := Start(Config{Journal: journal, HeartbeatEvery: 20 * time.Millisecond, LeaseTTL: tc.ttl, Obs: o})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			cl := dialClient(t, c)

			conn, err := net.Dial("tcp", c.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := writeMsg(conn, kindHello, helloMsg{PID: 1, Worker: -1}); err != nil {
				t.Fatal(err)
			}
			var welcome welcomeMsg
			if msg, err := readMsg(conn); err != nil || msg.kind != kindWelcome || msg.decode(&welcome) != nil {
				t.Fatalf("welcome: kind=%d err=%v", msg.kind, err)
			}

			type outcome struct {
				rr  *mapreduce.RemoteResult
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				rr, err := cl.RunRemote(mapreduce.PhaseMap, 4, 0, nil)
				done <- outcome{rr, err}
			}()
			if msg, err := readMsg(conn); err != nil || msg.kind != kindGrant {
				t.Fatalf("grant: kind=%d err=%v", msg.kind, err)
			}
			time.Sleep(2 * time.Millisecond) // the lease occupies the worker for a measurable while
			tc.cause(t, c.Addr(), conn, welcome.Worker)

			var out outcome
			select {
			case out = <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("forfeit never reached the driver")
			}
			if out.err == nil || out.err.Error() != tc.err {
				t.Errorf("driver error = %v, want %q", out.err, tc.err)
			}
			if out.rr == nil || out.rr.WallSeconds <= 0 || out.rr.Footprint.CPUSeconds != out.rr.WallSeconds {
				t.Errorf("driver got lost-work footprint %+v, want the held time charged as CPU and wall", out.rr)
			}
			for _, s := range []string{"granted", "completed", "failed", "expired", "lost", "revoked", "stale"} {
				want := int64(0)
				if s == "granted" || s == tc.state {
					want = 1
				}
				if got := transitionCount(o, s); got != want {
					t.Errorf("transitions{state=%q} = %d, want %d", s, got, want)
				}
			}

			// The journal holds exactly one settle, carrying the same outcome.
			c.Close()
			f, err := os.Open(journal)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var settles []evSettle
			for {
				kind, payload, err := readFrame(f)
				if err != nil {
					break
				}
				if kind == jkSettle {
					var ev evSettle
					if err := json.Unmarshal(payload, &ev); err != nil {
						t.Fatal(err)
					}
					settles = append(settles, ev)
				}
			}
			if len(settles) != 1 {
				t.Fatalf("journal holds %d settles, want 1", len(settles))
			}
			got := settles[0].Outcome
			if got.State != tc.state || got.Error != tc.err || got.Task != 4 || got.Phase != mapreduce.PhaseMap ||
				got.Result == nil || got.Result.WallSeconds != out.rr.WallSeconds {
				t.Errorf("journaled outcome = %+v (result %+v), want state %q, error %q and the delivered footprint",
					got, got.Result, tc.state, tc.err)
			}
		})
	}
}

// TestClientOnlyDriver pins the package's one driver path: Client is the
// mapreduce.Remote, and the Coordinator offers no in-process shortcut a test
// or a binary could take around the wire.
func TestClientOnlyDriver(t *testing.T) {
	var _ mapreduce.Remote = (*Client)(nil)
	typ := reflect.TypeOf(&Coordinator{})
	for _, name := range []string{"RunRemote", "PublishRemote"} {
		if _, ok := typ.MethodByName(name); ok {
			t.Errorf("*Coordinator has method %s; drivers reach it through a dialed Client only", name)
		}
	}
}

// captureRunner is a JobRunner that, while its first attempt holds a lease,
// notes which driver connection the coordinator owes that attempt's answer.
type captureRunner struct {
	JobRunner
	c    *Coordinator
	once *sync.Once
	d    **driverConn
}

func (r *captureRunner) Run(ctx context.Context, phase string, task, attempt int, fetch mapreduce.RemoteFetch) (*mapreduce.RemoteResult, error) {
	r.once.Do(func() {
		r.c.mu.Lock()
		for _, g := range r.c.waiters {
			*r.d = g.d
		}
		r.c.mu.Unlock()
	})
	return r.JobRunner.Run(ctx, phase, task, attempt, fetch)
}

// TestDriverReqsPrunedAfterJob runs a whole job the way scijob -cluster does
// — one dialed Client as the job's Remote, every map and reduce attempt a
// run request on that one connection — and requires the coordinator's
// cancel-correlation map for the connection to be empty afterwards: an entry
// lives only until its request is answered. A cancel that arrives for an
// answered seq finds nothing and stays a no-op.
func TestDriverReqsPrunedAfterJob(t *testing.T) {
	spec := e2eSpecFixture
	spec.SleepMs = 0
	o := obs.New()
	c, err := Start(Config{Journal: filepath.Join(t.TempDir(), "coord.journal"), HeartbeatEvery: 20 * time.Millisecond, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var d *driverConn
	var once sync.Once
	for i := 0; i < 2; i++ {
		w := NewWorker(WorkerConfig{
			Addr: c.Addr(),
			Build: func([]byte) (Runner, error) {
				return &captureRunner{JobRunner: JobRunner{Job: e2eJob(spec, e2eFS())}, c: c, once: &once, d: &d}, nil
			},
		})
		go w.Run()
		t.Cleanup(w.Stop)
	}
	cl := dialClient(t, c)
	job := e2eJob(spec, e2eFS())
	job.Remote = cl
	job.Parallelism = 4
	if _, err := mapreduce.Run(job); err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("no attempt ran under a lease")
	}
	pending := func() int {
		d.mu.Lock()
		defer d.mu.Unlock()
		return len(d.reqs)
	}
	if n := pending(); n != 0 {
		t.Fatalf("driver connection still holds %d answered run requests", n)
	}

	// Seq 1 was answered long ago. The driver loop serves frames in order,
	// so once the next run request is answered the cancel has been handled.
	cl.mu.Lock()
	cc := cl.conn
	cl.mu.Unlock()
	if err := cc.send(kindCancel, cancelMsg{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunRemote(mapreduce.PhaseMap, 0, 0, nil); err != nil {
		t.Fatalf("run request after a late cancel: %v", err)
	}
	if n := transitionCount(o, "revoked"); n != 0 {
		t.Errorf("late cancel revoked %d leases", n)
	}
	if n := pending(); n != 0 {
		t.Errorf("driver connection holds %d run requests after the late cancel", n)
	}
}

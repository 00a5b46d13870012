package clusterd

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scikey/internal/mapreduce"
	"scikey/internal/obs"
)

// Restart tests: the coordinator is killed and restarted in-process (same
// journal, same address) while a real Worker and a wire Client ride out the
// outage. The e2e suite does the same with kill -9 on subprocesses; these
// stay at the unit level so failures localize.

func TestReadoptRules(t *testing.T) {
	t0 := time.Unix(1000, 0)
	lt := newLeaseTable(time.Second)
	li := lt.next(2, 3, mapreduce.PhaseMap, 1, 0, t0)
	lt.install(li, t0)
	if _, ok := lt.readopt(2, leaseClaim{Lease: li.ID, Epoch: 99}, t0); ok {
		t.Error("wrong-epoch claim re-adopted")
	}
	if _, ok := lt.readopt(5, leaseClaim{Lease: li.ID, Epoch: 3}, t0); ok {
		t.Error("wrong-worker claim re-adopted")
	}
	if _, ok := lt.readopt(2, leaseClaim{Lease: 77, Epoch: 3}, t0); ok {
		t.Error("unknown-lease claim re-adopted")
	}
	got, ok := lt.readopt(2, leaseClaim{Lease: li.ID, Epoch: 3}, t0.Add(time.Hour))
	if !ok || got.Deadline != t0.Add(time.Hour).Add(time.Second) {
		t.Errorf("valid claim: ok=%v deadline=%v", ok, got.Deadline)
	}
}

// TestWorkerReregistrationReplacesGhost pins the dedup fix: a worker
// reconnecting under its existing ID must replace the stale workerConn, not
// sit beside it — a ghost would inflate the registry and skew least-loaded
// placement toward a connection that can take no work.
func TestWorkerReregistrationReplacesGhost(t *testing.T) {
	c, err := Start(Config{Journal: filepath.Join(t.TempDir(), "coord.journal"), HeartbeatEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := dialClient(t, c)

	dialWorker := func(pid, id int) (net.Conn, welcomeMsg) {
		t.Helper()
		conn, err := net.Dial("tcp", c.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := writeMsg(conn, kindHello, helloMsg{PID: pid, Worker: id}); err != nil {
			t.Fatal(err)
		}
		msg, err := readMsg(conn)
		if err != nil || msg.kind != kindWelcome {
			t.Fatalf("welcome: kind=%d err=%v", msg.kind, err)
		}
		var w welcomeMsg
		if err := msg.decode(&w); err != nil {
			t.Fatal(err)
		}
		return conn, w
	}

	conn1, w1 := dialWorker(111, -1)
	defer conn1.Close()
	conn2, w2 := dialWorker(222, w1.Worker)
	defer conn2.Close()
	if w2.Worker != w1.Worker {
		t.Fatalf("reconnect under ID %d was assigned %d", w1.Worker, w2.Worker)
	}

	// Exactly one registration remains, and it is the new connection.
	c.mu.Lock()
	n := len(c.workers)
	pid := c.workers[w1.Worker].pid
	c.mu.Unlock()
	if n != 1 || pid != 222 {
		t.Fatalf("after re-registration: %d workers, pid %d; want 1 worker with pid 222", n, pid)
	}
	if g := c.gWorkers.Value(); g != 1 {
		t.Errorf("worker gauge = %d, want 1", g)
	}

	// The ghost's connection was closed by the coordinator.
	conn1.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readMsg(conn1); err == nil {
		t.Error("stale connection still delivered a frame after replacement")
	}

	// Work flows to the replacement and completes — the ghost's retirement
	// must not have torn down the new registration's state.
	done := make(chan error, 1)
	go func() {
		_, err := cl.RunRemote(mapreduce.PhaseMap, 0, 0, nil)
		done <- err
	}()
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	msg, err := readMsg(conn2)
	if err != nil || msg.kind != kindGrant {
		t.Fatalf("grant on replacement conn: kind=%d err=%v", msg.kind, err)
	}
	var grant grantMsg
	if err := msg.decode(&grant); err != nil {
		t.Fatal(err)
	}
	if err := writeMsg(conn2, kindComplete, completeMsg{Lease: grant.Lease, Result: &mapreduce.RemoteResult{}}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("attempt via replacement registration: %v", err)
	}
}

// TestNoGrantBeforeWelcome forces the interleaving that used to lose a lease:
// the dispatcher runs between a worker's registration and its welcome, with a
// run request already pending. A worker's handshake takes the first frame for
// the welcome, so a grant written ahead of it kills the session and the lease
// goes with it. The coordinator logs the replacement of a stale registration
// exactly inside that window, which is where the test kicks the dispatcher
// and gives it time to act.
func TestNoGrantBeforeWelcome(t *testing.T) {
	var c *Coordinator
	c, err := Start(Config{Journal: filepath.Join(t.TempDir(), "coord.journal"), HeartbeatEvery: 50 * time.Millisecond, Logf: func(format string, _ ...any) {
		if strings.Contains(format, "replaced stale registration") {
			c.wake()
			time.Sleep(20 * time.Millisecond)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := dialClient(t, c)

	hello := func(id int) (net.Conn, message) {
		t.Helper()
		conn, err := net.Dial("tcp", c.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if err := writeMsg(conn, kindHello, helloMsg{PID: 1, Worker: id}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		msg, err := readMsg(conn)
		if err != nil {
			t.Fatal(err)
		}
		return conn, msg
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			c.mu.Lock()
			ok := cond()
			c.mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	// A registered but draining worker: it takes no grant, and its ID is
	// there to be re-registered under.
	old, msg := hello(-1)
	var first welcomeMsg
	if msg.kind != kindWelcome || msg.decode(&first) != nil {
		t.Fatalf("first registration: frame kind %d", msg.kind)
	}
	if err := writeMsg(old, kindGoodbye, goodbyeMsg{Draining: true}); err != nil {
		t.Fatal(err)
	}
	waitFor("the drain", func() bool { return c.workers[first.Worker].draining })

	done := make(chan error, 1)
	go func() {
		_, err := cl.RunRemote(mapreduce.PhaseMap, 0, 0, nil)
		done <- err
	}()
	waitFor("the pending run request", func() bool { return len(c.pending) == 1 })

	conn, msg := hello(first.Worker)
	if msg.kind != kindWelcome {
		t.Fatalf("first frame after hello is kind %d, want the welcome (%d): a grant overtook it", msg.kind, kindWelcome)
	}
	msg, err = readMsg(conn)
	var grant grantMsg
	if err != nil || msg.kind != kindGrant || msg.decode(&grant) != nil {
		t.Fatalf("grant after the welcome: kind=%d err=%v", msg.kind, err)
	}
	if err := writeMsg(conn, kindComplete, completeMsg{Lease: grant.Lease, Result: &mapreduce.RemoteResult{}}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("the pending attempt: %v", err)
	}
}

// restartCoordinator starts a coordinator on a previous incarnation's address
// and journal, retrying briefly while the old port is released.
func restartCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := Start(cfg)
		if err == nil {
			return c
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarting coordinator on %s: %v", cfg.Addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCoordinatorRestartReadoption is the tentpole in miniature: kill the
// coordinator mid-attempt, restart it from the journal on the same address,
// and the attempt — still running in its worker the whole time — commits
// normally under its re-adopted lease, delivered to a driver Client that
// reconnected and re-sent the submission.
func TestCoordinatorRestartReadoption(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "coord.journal")
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	runner := &stubRunner{
		hook: func(ctx context.Context, phase string, task, attempt int, fetch mapreduce.RemoteFetch) (*mapreduce.RemoteResult, error) {
			started <- struct{}{}
			<-release
			return &mapreduce.RemoteResult{Output: []byte(fmt.Sprintf("%s:%d:%d", phase, task, attempt))}, nil
		},
	}
	c1, err := Start(Config{Journal: journal, HeartbeatEvery: 20 * time.Millisecond, LeaseTTL: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	addr := c1.Addr()
	if c1.Epoch() != 1 {
		t.Fatalf("first incarnation epoch = %d, want 1", c1.Epoch())
	}

	w := NewWorker(WorkerConfig{
		Addr:  addr,
		Build: func(spec []byte) (Runner, error) { return runner, nil },
	})
	go w.Run()
	defer w.Stop()

	cl, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	type outcome struct {
		rr  *mapreduce.RemoteResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rr, err := cl.RunRemote(mapreduce.PhaseMap, 0, 0, nil)
		done <- outcome{rr, err}
	}()
	<-started

	// Crash: journal left as appended, no drain, no goodbye.
	c1.Close()
	o2 := obs.New()
	c2 := restartCoordinator(t, Config{
		Addr: addr, Journal: journal, Obs: o2,
		HeartbeatEvery: 20 * time.Millisecond, LeaseTTL: 2 * time.Second,
	})
	defer c2.Close()
	if c2.Epoch() != 2 {
		t.Errorf("restarted epoch = %d, want 2", c2.Epoch())
	}
	if n := c2.gReplayed.Value(); n == 0 {
		t.Error("restart replayed zero journal events")
	}

	// The attempt was blocked in the worker across the whole outage; release
	// it and the commit must arrive through the new incarnation.
	close(release)
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatalf("attempt across coordinator restart: %v", out.err)
		}
		if got := string(out.rr.Output); got != "map:0:0" {
			t.Errorf("attempt output = %q, want \"map:0:0\"", got)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("attempt never completed after coordinator restart")
	}

	if n := o2.R().Counter("scikey_lease_readopted_total",
		"leases re-adopted by reconnecting workers after a coordinator restart", "").Value(); n != 1 {
		t.Errorf("readopted leases = %d, want 1", n)
	}
	if cl.Epoch() != 2 {
		t.Errorf("client settled on epoch %d, want 2", cl.Epoch())
	}
}

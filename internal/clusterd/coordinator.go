// Package clusterd promotes the in-process attempt scheduler into a
// multi-process cluster runtime: a coordinator daemon that owns the lease
// state machine, and worker processes that register over TCP, heartbeat, and
// execute task attempts under leases.
//
// The division of labor keeps recovered runs byte-identical to
// single-process ones. All scheduling policy — retry budgets, deterministic
// backoff, speculative twins, first-finisher commit, corrupt-segment repair
// — stays in internal/mapreduce on the driver, which reaches the coordinator
// over the wire through Client, the package's one mapreduce.Remote. Workers
// only produce bytes: they rebuild the job from the opaque spec pushed at
// registration and run single attempts through the exact in-process data
// path. A worker dying mid-lease (kill -9, SIGSTOP, network partition)
// surfaces as a failed attempt; the scheduler retries it under a fresh lease
// like any other failure, and a stale completion from a presumed-dead worker
// that comes back is dropped by the lease table.
//
// The coordinator itself is crash-recoverable: every durable state
// transition is journaled (see journal.go) before it takes effect, and a
// coordinator that is SIGKILLed, or whose append fails, restarts by
// replaying journal-over-checkpoint, re-listens, and waits out one lease
// TTL of grace during which workers reconnect and re-adopt their surviving
// leases by presenting (lease ID, grant epoch). Attempts that outlived the
// outage commit normally; leases whose workers never return expire and are
// charged as waste, exactly like a worker death.
package clusterd

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"scikey/internal/cluster"
	"scikey/internal/faults"
	"scikey/internal/mapreduce"
	"scikey/internal/obs"
)

// Config configures a Coordinator.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral port).
	Addr string
	// Spec is the opaque job description pushed to each worker at
	// registration; workers rebuild the job from it deterministically.
	Spec []byte
	// HeartbeatEvery is the heartbeat interval pushed to workers.
	// Default 100ms.
	HeartbeatEvery time.Duration
	// LeaseTTL is how long a lease survives without a renewing heartbeat.
	// Default 5×HeartbeatEvery.
	LeaseTTL time.Duration
	// Journal is the path of the durable control-plane journal. Required:
	// the coordinator journals every state transition, and a restart on the
	// same path replays it.
	Journal string
	// Faults optionally injects process-level faults: proc:worker rules
	// SIGKILL or SIGSTOP a worker process as it starts an attempt, and
	// proc:coord rules kill or hang the coordinator itself (real signals to
	// its own process) at seeded journal points (after the event is durable,
	// before its effect is sent), exercising the crash-recovery path.
	Faults *faults.Injector
	// Signal overrides how proc faults reach the worker process. Nil sends
	// real signals; tests substitute a recorder.
	Signal func(pid int, fault *faults.ProcFault)
	// Obs optionally records cluster gauges, lease-transition counters,
	// journal counters, and heartbeat-gap histograms.
	Obs *obs.Observer
	// Logf, when non-nil, receives coordinator diagnostics.
	Logf func(format string, args ...any)
}

// grantReq is one submitted attempt: queued until a worker is available,
// then bound to a lease. Its outcome goes to driver d as the answer to run
// request seq. d and seq are read and replaced only under the coordinator
// mutex (a reconnecting driver's re-send redirects them).
type grantReq struct {
	phase   string
	task    int
	attempt int
	lease   int // -1 while queued
	d       *driverConn
	seq     int
}

func (g *grantReq) key() attemptKey {
	return attemptKey{Phase: g.phase, Task: g.task, Attempt: g.attempt}
}

// workerConn is the coordinator's view of one registered worker.
type workerConn struct {
	peer
	id       int
	pid      int
	draining bool
	dead     bool
	// welcomed is set once the welcome frame is written. The worker's
	// handshake takes the next frame for the welcome, so until then the
	// dispatcher must not pick this worker: a grant that overtook it would
	// fail the handshake and lose its lease.
	welcomed bool
	lastBeat time.Time
}

// driverConn is one connected driver (attempt scheduler) session.
type driverConn struct {
	peer

	mu sync.Mutex
	// reqs maps seq → submission, for cancel correlation. An entry lives
	// from its run request until the request is answered — outcome, error or
	// honoured cancel — so the map is bounded by the driver's in-flight
	// attempts however long the connection lasts.
	reqs map[int]*grantReq
}

// forget drops the cancel-correlation entry of an answered run request.
func (d *driverConn) forget(seq int) {
	d.mu.Lock()
	delete(d.reqs, seq)
	d.mu.Unlock()
}

// Coordinator is the cluster control plane: worker registry, journaled lease
// state machine, and segment store, serving workers and driver Clients.
type Coordinator struct {
	cfg Config
	ln  net.Listener

	mu      sync.Mutex
	state   *coordState
	jnl     *journal
	peers   map[net.Conn]bool // every accepted connection, for shutdown
	workers map[int]*workerConn
	waiters map[int]*grantReq        // lease ID → outstanding submission
	subs    map[attemptKey]*grantReq // attempt → outstanding submission
	pending []*grantReq
	closed  bool

	kick chan struct{} // wakes the dispatcher
	stop chan struct{} // closed when the incarnation ends
	done chan struct{} // closed once every goroutine of the incarnation returned
	wg   sync.WaitGroup

	gWorkers    obs.Gauge
	gLeases     obs.Gauge
	hBeatGap    obs.Histogram
	transitions map[string]obs.Counter
	cJEvents    obs.Counter
	cJBytes     obs.Counter
	cCkpt       obs.Counter
	cReadopt    obs.Counter
	gReplayed   obs.Gauge
}

// Start listens on cfg.Addr and runs the coordinator until Close. It first
// replays cfg.Journal's journal-over-checkpoint, so a restart resumes the
// previous incarnation's live state under a new epoch.
func Start(cfg Config) (*Coordinator, error) {
	if cfg.Journal == "" {
		return nil, errors.New("clusterd: Config.Journal is required")
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 100 * time.Millisecond
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 5 * cfg.HeartbeatEvery
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Signal == nil {
		cfg.Signal = realSignal
	}
	jnl, state, stats, err := openJournal(cfg.Journal, cfg.LeaseTTL, time.Now())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		jnl.Close()
		return nil, fmt.Errorf("clusterd: listen %s: %w", cfg.Addr, err)
	}
	c := &Coordinator{
		cfg:     cfg,
		ln:      ln,
		state:   state,
		jnl:     jnl,
		peers:   make(map[net.Conn]bool),
		workers: make(map[int]*workerConn),
		waiters: make(map[int]*grantReq),
		subs:    make(map[attemptKey]*grantReq),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	reg := obs.NewRegistry()
	if cfg.Obs != nil {
		reg = cfg.Obs.R()
	}
	c.gWorkers = reg.Gauge("scikey_cluster_workers", "registered worker processes", "")
	c.gLeases = reg.Gauge("scikey_cluster_leases_active", "outstanding task leases", "")
	c.hBeatGap = reg.Histogram("scikey_cluster_heartbeat_gap_seconds",
		"gap between consecutive heartbeats per worker", "s", obs.ExpBuckets(0.005, 2, 12))
	c.transitions = make(map[string]obs.Counter)
	for _, s := range []string{"granted", "completed", "failed", "expired", "lost", "revoked", "stale"} {
		c.transitions[s] = reg.Counter("scikey_cluster_lease_transitions_total",
			"lease state transitions", "", obs.L("state", s))
	}
	c.cJEvents = reg.Counter("scikey_coord_journal_events_total",
		"control-plane events appended to the coordinator journal", "")
	c.cJBytes = reg.Counter("scikey_coord_journal_bytes_total",
		"bytes appended to the coordinator journal", "B")
	c.cCkpt = reg.Counter("scikey_coord_journal_checkpoints_total",
		"journal compactions into a checkpoint", "")
	c.cReadopt = reg.Counter("scikey_lease_readopted_total",
		"leases re-adopted by reconnecting workers after a coordinator restart", "")
	c.gReplayed = reg.Gauge("scikey_coord_journal_replayed_events",
		"journal events replayed at the last coordinator start", "")
	c.gReplayed.Set(int64(stats.Events))

	// Stamp the new incarnation: replayed epoch + 1, journaled first thing.
	// Leases replayed from earlier incarnations keep their grant-time epoch
	// — that is what workers present in their re-adoption claims — while
	// everything this incarnation grants carries the new epoch.
	c.mu.Lock()
	err = c.journalApply(jkBoot, evBoot{Epoch: state.epoch + 1})
	replayedLeases := state.leases.count()
	c.gLeases.Set(int64(replayedLeases))
	c.mu.Unlock()
	if err != nil {
		<-c.done
		return nil, err
	}
	if stats.Events > 0 || stats.Checkpoint || replayedLeases > 0 {
		c.logf("clusterd: coordinator epoch %d: replayed %d events (checkpoint=%v, %d live leases, %d torn bytes truncated)",
			state.epoch, stats.Events, stats.Checkpoint, replayedLeases, stats.Truncated)
	}

	c.wg.Add(3)
	go c.acceptLoop()
	go c.dispatchLoop()
	go c.expireLoop()
	return c, nil
}

// Addr is the coordinator's bound listen address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Epoch is the coordinator's incarnation number (1 for a fresh journal).
func (c *Coordinator) Epoch() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state.epoch
}

// Done is closed once the incarnation has ended and every goroutine of it
// returned: after Close or Shutdown, or on its own when a journal append
// fails. A daemon waits on it, so a coordinator that stopped itself exits
// and is restarted on its journal.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Close stops the coordinator abruptly: every connection closes — a driver
// Client sees that as an outage, redials and re-submits — and the journal is
// left exactly as appended, the same on-disk state a crash would leave,
// minus the torn tail.
func (c *Coordinator) Close() error { return c.shutdown(false) }

// Shutdown drains cleanly: the journal is compacted into a single checkpoint
// before closing, so the next start replays zero events. This is the SIGTERM
// path of scijob -coordinator; active leases ride along in the checkpoint
// and are re-adopted when the coordinator returns.
func (c *Coordinator) Shutdown() error { return c.shutdown(true) }

func (c *Coordinator) shutdown(drain bool) error {
	c.mu.Lock()
	var err error
	if !c.closed {
		if drain {
			c.compactLocked()
		}
		err = c.stopLocked()
	}
	c.mu.Unlock()
	<-c.done
	return err
}

// stopLocked ends the incarnation (Close, Shutdown, a failed append): it
// closes the journal, the listener and every connection under the lock, and
// waits for the goroutines off it. Caller holds c.mu.
func (c *Coordinator) stopLocked() error {
	c.closed = true
	err := c.jnl.Close()
	c.ln.Close()
	for conn := range c.peers {
		conn.Close()
	}
	close(c.stop)
	go func() {
		c.wg.Wait()
		close(c.done)
	}()
	return err
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// journalApply is the coordinator's one durability rule: it appends the
// event to the journal, fsynced, and only then applies it to the live state
// (the apply replay runs), so whatever the caller does next acts on a
// durable event. An append that fails ends the incarnation (stopLocked)
// before journalApply returns, so no caller can send that event's effect; a
// closed coordinator appends and applies nothing. A failed compaction is
// only logged (compactLocked). A durable grant or settle is the
// one proc:coord fault point. Caller holds c.mu.
func (c *Coordinator) journalApply(kind byte, ev any) error {
	if c.closed {
		return errors.New("clusterd: coordinator closed")
	}
	m, err := encodeMsg(kind, ev)
	var n int64
	if err == nil {
		n, err = c.jnl.append(m)
	}
	if err != nil {
		c.logf("%v: coordinator epoch %d stops", err, c.state.epoch)
		c.stopLocked()
		return err
	}
	c.cJEvents.Inc()
	c.cJBytes.Add(n)
	c.coordFault(ev)
	if err := c.state.apply(m, time.Now()); err != nil {
		c.logf("clusterd: apply journal event %d: %v", kind, err)
	}
	if c.jnl.due() {
		c.compactLocked()
	}
	return nil
}

// compactLocked checkpoints the journal. A failed compaction is only
// logged: the old file stays intact until the atomic rename. Caller holds
// c.mu.
func (c *Coordinator) compactLocked() {
	if err := c.jnl.compact(c.state); err != nil {
		c.logf("%v", err)
		return
	}
	c.cCkpt.Inc()
}

// coordFault consults the proc:coord fault rules at a seeded journal point
// (a grant is op CoordOpGrant, a settle op CoordOpCommit; seq = lease ID)
// and delivers the fault to this very process. journalApply calls it once
// the event is fsynced and before any effect of it leaves the process, so a
// kill here is the tightest possible crash window — and because lease IDs
// are journaled monotonic, a respawned coordinator never re-fires the same
// point.
func (c *Coordinator) coordFault(ev any) {
	if c.cfg.Faults == nil {
		return
	}
	var op, seq int
	switch e := ev.(type) {
	case evGrant:
		op, seq = faults.CoordOpGrant, e.Lease.ID
	case evSettle:
		op, seq = faults.CoordOpCommit, e.Lease
	default:
		return
	}
	f := c.cfg.Faults.CoordFault(op, seq)
	if f == nil {
		return
	}
	c.logf("clusterd: injecting %s into coordinator (op %d, lease %d)", f.Action, op, seq)
	realSelfSignal(f)
}

// submit registers one attempt submission. It returns a non-nil outcome when
// the attempt already settled under a previous incarnation (a journaled
// orphan) — the caller delivers it instead of re-running. Submissions are
// idempotent on (phase, task, attempt): a duplicate re-sent by a
// reconnecting driver redirects the outstanding submission's answer; an
// attempt whose lease survived a coordinator restart binds to that lease. A
// stopped coordinator has closed the driver's connection, so nothing it
// queues here is answered.
func (c *Coordinator) submit(g *grantReq) *storedOutcome {
	key := g.key()
	c.mu.Lock()
	if o, ok := c.state.outcomes[key]; ok {
		c.mu.Unlock()
		return o
	}
	if prior := c.subs[key]; prior != nil {
		prior.d, prior.seq = g.d, g.seq
		c.mu.Unlock()
		return nil
	}
	c.subs[key] = g
	if li, ok := c.state.leases.byAttempt(g.phase, g.task, g.attempt); ok {
		// The attempt is already running under a lease that survived a
		// coordinator restart; wait on it rather than granting a twin.
		g.lease = li.ID
		c.waiters[li.ID] = g
		c.mu.Unlock()
		return nil
	}
	g.lease = -1
	c.pending = append(c.pending, g)
	c.mu.Unlock()
	c.wake()
	return nil
}

// finish sends a settled outcome to the driver waiting on its submission,
// then journals its delivery. An outcome whose send fails stays journaled as
// an orphan, so the driver's re-ask after it redials is answered from the
// journal and the attempt does not run again. A crash between the send and
// the delivery record leaves an outcome the driver already holds; nothing
// asks for it again.
func (c *Coordinator) finish(g *grantReq, o *storedOutcome) {
	if g == nil {
		return
	}
	c.mu.Lock()
	d, seq := g.d, g.seq
	c.mu.Unlock()
	d.forget(seq)
	err := d.send(kindRunResult, runResultMsg{
		Seq: seq, Result: o.Result, Error: o.Error, Canceled: o.Canceled, Corrupt: o.Corrupt,
	})
	if err != nil {
		return
	}
	c.mu.Lock()
	c.journalApply(jkDeliver, o.key())
	c.mu.Unlock()
}

// cancelGrant withdraws a canceled attempt: dequeued if still pending,
// revoked if leased. It reports true when the grant was withdrawn before an
// outcome was delivered. A revocation is journaled as a settle+deliver pair
// — the cancellation consumes its own outcome, so nothing lingers for
// replay.
func (c *Coordinator) cancelGrant(g *grantReq) bool {
	c.mu.Lock()
	for i, p := range c.pending {
		if p == g {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			delete(c.subs, g.key())
			c.mu.Unlock()
			return true
		}
	}
	if g.lease >= 0 {
		if _, ok := c.waiters[g.lease]; ok {
			li := c.state.leases.active[g.lease]
			o := &storedOutcome{State: "revoked", Canceled: true}
			c.settleLocked(li, o)
			c.journalApply(jkDeliver, o.key())
			var w *workerConn
			if li != nil {
				w = c.workers[li.Worker]
			}
			c.mu.Unlock()
			if w != nil && !w.dead {
				w.send(kindRevoke, revokeMsg{Lease: g.lease})
			}
			return true
		}
	}
	c.mu.Unlock()
	return false // outcome already delivered (or being delivered)
}

func (c *Coordinator) wake() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go c.servePeer(conn)
	}
}

// servePeer reads the first frame to learn what connected: a worker (hello)
// or a driver (driverHello). The connection is registered with the peer set
// first, so shutdown can close it out from under a blocked read.
func (c *Coordinator) servePeer(conn net.Conn) {
	defer c.wg.Done()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.peers[conn] = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.peers, conn)
		c.mu.Unlock()
	}()
	msg, err := readMsg(conn)
	if err != nil {
		conn.Close()
		return
	}
	switch msg.kind {
	case kindHello:
		var hello helloMsg
		if msg.decode(&hello) != nil {
			conn.Close()
			return
		}
		c.serveWorker(conn, hello)
	case kindDriverHello:
		c.serveDriver(conn)
	default:
		conn.Close()
	}
}

// serveWorker runs one worker's registration and message loop. A worker
// presenting an ID it was assigned before (by this incarnation or a crashed
// one) keeps that identity; its hello claims are matched against the
// (replayed) lease table and accepted claims are re-adopted. A stale
// workerConn under the same ID — a ghost left by a half-open connection — is
// replaced, not duplicated, so placement load counts stay honest.
func (c *Coordinator) serveWorker(conn net.Conn, hello helloMsg) {
	now := time.Now()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	id := hello.Worker
	if id < 0 || id >= c.state.nextWorker {
		id = c.state.nextWorker
		c.journalApply(jkWorker, evWorker{ID: id})
	}
	var ghost *workerConn
	if old, ok := c.workers[id]; ok {
		old.dead = true
		ghost = old
	}
	w := &workerConn{peer: peer{conn: conn}, id: id, pid: hello.PID, lastBeat: now}
	c.workers[id] = w
	c.gWorkers.Set(int64(len(c.workers)))

	// Re-adopt surviving claims; forfeit this worker's unclaimed leases (the
	// worker no longer runs those attempts, so waiting out the TTL would
	// only delay the retry).
	var readopted []int
	claimed := make(map[int]bool, len(hello.Claims))
	for _, cl := range hello.Claims {
		if li, ok := c.state.leases.readopt(id, cl, now); ok {
			readopted = append(readopted, li.ID)
			claimed[li.ID] = true
			c.cReadopt.Inc()
		}
	}
	held := heldBy(id)
	forfeits := c.forfeitLocked("lost", "re-registered without it",
		func(li *leaseInfo) bool { return held(li) && !claimed[li.ID] })
	epoch := c.state.epoch
	c.mu.Unlock()

	if ghost != nil {
		ghost.conn.Close()
		c.logf("clusterd: worker %d reconnected; replaced stale registration", id)
	}
	c.finishForfeits(forfeits)

	err := w.send(kindWelcome, welcomeMsg{
		Worker:         id,
		Epoch:          epoch,
		Spec:           c.cfg.Spec,
		HeartbeatEvery: c.cfg.HeartbeatEvery,
		LeaseTTL:       c.cfg.LeaseTTL,
		Readopted:      readopted,
	})
	if err != nil {
		c.retireWorker(w)
		return
	}
	c.mu.Lock()
	w.welcomed = true
	c.mu.Unlock()
	c.logf("clusterd: worker %d registered (pid %d, %s, %d leases re-adopted)",
		id, hello.PID, conn.RemoteAddr(), len(readopted))
	c.wake() // a new worker can take pending grants

	for {
		msg, err := readMsg(conn)
		if err != nil {
			c.retireWorker(w)
			return
		}
		switch msg.kind {
		case kindHeartbeat:
			var m heartbeatMsg
			if msg.decode(&m) == nil {
				c.handleHeartbeat(w, m)
			}
		case kindStarted:
			var m startedMsg
			if msg.decode(&m) == nil {
				c.handleStarted(w, m)
			}
		case kindComplete:
			var m completeMsg
			if msg.decode(&m) == nil {
				c.settleWorker(w, m.Lease, &storedOutcome{State: "completed", Result: m.Result})
			}
		case kindFail:
			var m failMsg
			if msg.decode(&m) == nil {
				c.settleWorker(w, m.Lease, &storedOutcome{
					State: "failed", Error: m.Error, Canceled: m.Canceled, Corrupt: m.Corrupt,
				})
			}
		case kindSegReq:
			var m segReqMsg
			if msg.decode(&m) == nil {
				c.handleSegReq(w, m)
			}
		case kindGoodbye:
			var m goodbyeMsg
			if msg.decode(&m) == nil && m.Draining {
				c.mu.Lock()
				w.draining = true
				c.mu.Unlock()
				c.logf("clusterd: worker %d draining", w.id)
			}
		default:
			// Worker-bound kinds arriving here indicate a confused peer;
			// drop the session.
			c.retireWorker(w)
			return
		}
	}
}

// serveDriver runs one driver's session: answer the hello with the epoch,
// then serve run/cancel/publish requests until the connection ends. Driver
// state is reconstructible — a reconnecting driver re-sends its outstanding
// submissions — so a dropped driver connection leaves leases running and
// outcomes parked in the orphan store.
func (c *Coordinator) serveDriver(conn net.Conn) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	epoch := c.state.epoch
	c.mu.Unlock()

	d := &driverConn{peer: peer{conn: conn}, reqs: make(map[int]*grantReq)}
	if d.send(kindDriverWelcome, driverWelcomeMsg{Epoch: epoch}) != nil {
		conn.Close()
		return
	}
	c.logf("clusterd: driver connected (%s)", conn.RemoteAddr())

	for {
		msg, err := readMsg(conn)
		if err != nil {
			conn.Close()
			c.logf("clusterd: driver disconnected")
			return
		}
		switch msg.kind {
		case kindRunReq:
			var m runReqMsg
			if msg.decode(&m) == nil {
				c.handleRunReq(d, m)
			}
		case kindCancel:
			var m cancelMsg
			if msg.decode(&m) == nil {
				d.mu.Lock()
				g := d.reqs[m.Seq]
				d.mu.Unlock()
				if g != nil && c.cancelGrant(g) {
					d.forget(m.Seq)
					d.send(kindRunResult, runResultMsg{Seq: m.Seq, Canceled: true})
				}
			}
		case kindPublish:
			// A committed map attempt's segments enter the segment store,
			// where reduce workers fetch them; recovery republishes under a
			// higher attempt, which replaces the corrupt original. Journaled
			// before the ack; a re-send of output the store holds is acked.
			var m publishMsg
			if msg.decode(&m) == nil {
				c.mu.Lock()
				if !c.state.holdsPublish(m.MapTask, m.Attempt) {
					c.journalApply(jkPublish, evPublish{MapTask: m.MapTask, Attempt: m.Attempt, Parts: m.Parts})
				}
				c.mu.Unlock()
				d.send(kindPubAck, pubAckMsg{Seq: m.Seq})
			}
		case kindGoodbye:
			conn.Close()
			return
		default:
			conn.Close()
			return
		}
	}
}

func (c *Coordinator) handleRunReq(d *driverConn, m runReqMsg) {
	g := &grantReq{phase: m.Phase, task: m.Task, attempt: m.Attempt, lease: -1, d: d, seq: m.Seq}
	d.mu.Lock()
	d.reqs[m.Seq] = g
	d.mu.Unlock()
	if orphan := c.submit(g); orphan != nil {
		c.logf("clusterd: re-delivering journaled outcome for %s task %d attempt %d",
			m.Phase, m.Task, m.Attempt)
		c.finish(g, orphan)
	}
}

// settleLocked journals one lease settlement and detaches its waiter, which
// the caller must finish() after releasing c.mu. o's attempt coordinates are
// filled from the lease. Caller holds c.mu; li must be active.
func (c *Coordinator) settleLocked(li *leaseInfo, o *storedOutcome) *grantReq {
	if li == nil {
		return nil
	}
	o.Phase, o.Task, o.Attempt = li.Phase, li.Task, li.Attempt
	c.journalApply(jkSettle, evSettle{Lease: li.ID, Outcome: *o})
	g := c.waiters[li.ID]
	delete(c.waiters, li.ID)
	delete(c.subs, attemptKey{Phase: li.Phase, Task: li.Task, Attempt: li.Attempt})
	c.gLeases.Set(int64(c.state.leases.count()))
	if t, ok := c.transitions[o.State]; ok {
		t.Inc()
	}
	return g
}

// forfeit is one lease the coordinator settled on its own authority, with
// the submission and worker connection (either may be nil) it concerned.
type forfeit struct {
	li *leaseInfo
	o  *storedOutcome
	g  *grantReq
	w  *workerConn
}

// forfeitLocked is the one forfeit rule: every active lease match selects is
// settled as state ("lost" or "expired") without a report from its worker,
// its held time charged as waste. Three causes reach here: a worker
// re-registering without a claim, a worker connection dropping, and a lease
// TTL lapsing. Caller holds c.mu and passes the result to finishForfeits
// after releasing it.
func (c *Coordinator) forfeitLocked(state, reason string, match selector) []forfeit {
	now := time.Now()
	var out []forfeit
	for _, li := range c.state.leases.pick(match) {
		o := &storedOutcome{
			State:  state,
			Result: lostWork(li, now),
			Error:  fmt.Sprintf("clusterd: lease %d %s: worker %d %s", li.ID, state, li.Worker, reason),
		}
		out = append(out, forfeit{li: li, o: o, g: c.settleLocked(li, o), w: c.workers[li.Worker]})
	}
	return out
}

// lostWork synthesizes the waste charge for an attempt whose worker died
// without reporting: the process could not ship its footprint, so the cost
// model is charged the wall-clock time the lease occupied the worker.
func lostWork(li *leaseInfo, now time.Time) *mapreduce.RemoteResult {
	held := max(now.Sub(li.Granted).Seconds(), 0)
	return &mapreduce.RemoteResult{
		Footprint:   cluster.Task{CPUSeconds: held},
		WallSeconds: held,
	}
}

// finishForfeits delivers forfeited outcomes to their drivers, so the
// scheduler retries each attempt under a fresh lease.
func (c *Coordinator) finishForfeits(fs []forfeit) {
	for _, f := range fs {
		c.finish(f.g, f.o)
	}
	if len(fs) > 0 {
		c.wake()
	}
}

// settleWorker handles a worker-reported outcome. Outcomes for leases the
// table no longer tracks — expired, revoked, or reassigned attempts — are
// stale and dropped: the scheduler already acted on the lease loss, and the
// first-finisher rule must only ever see results from live leases.
func (c *Coordinator) settleWorker(w *workerConn, lease int, o *storedOutcome) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	li, ok := c.state.leases.active[lease]
	if !ok || li.Worker != w.id {
		c.mu.Unlock()
		c.transitions["stale"].Inc()
		c.logf("clusterd: dropping stale %s for lease %d from worker %d", o.State, lease, w.id)
		return
	}
	g := c.settleLocked(li, o)
	c.mu.Unlock()
	c.finish(g, o)
	c.wake()
}

// retireWorker tears down a worker whose connection ended. A draining
// worker with no leases left deregisters cleanly; any leases still held are
// forfeited immediately — the live coordinator saw the process die, so
// waiting out the TTL would only delay the retry. (Re-adoption is for
// sessions the coordinator lost, not workers the coordinator lost.) A
// workerConn that was already replaced by a newer registration under the
// same ID is a ghost, and one retired already is dead too: only its
// connection is closed, the leases now belong to the replacement. A stopped
// coordinator delivers no forfeits, as a crash delivers none.
func (c *Coordinator) retireWorker(w *workerConn) {
	c.mu.Lock()
	if c.closed || w.dead {
		c.mu.Unlock()
		w.conn.Close()
		return
	}
	w.dead = true
	if c.workers[w.id] == w {
		delete(c.workers, w.id)
	}
	c.gWorkers.Set(int64(len(c.workers)))
	lost := c.forfeitLocked("lost", "connection dropped", heldBy(w.id))
	clean := w.draining && len(lost) == 0
	c.mu.Unlock()

	w.conn.Close()
	if clean {
		c.logf("clusterd: worker %d deregistered cleanly", w.id)
	} else {
		c.logf("clusterd: worker %d lost (%d leases forfeited)", w.id, len(lost))
	}
	c.finishForfeits(lost)
}

func (c *Coordinator) handleHeartbeat(w *workerConn, m heartbeatMsg) {
	now := time.Now()
	c.mu.Lock()
	c.hBeatGap.Observe(now.Sub(w.lastBeat).Seconds())
	w.lastBeat = now
	unknown := c.state.leases.renew(w.id, m.Leases, now)
	c.mu.Unlock()
	for _, id := range unknown {
		w.send(kindRevoke, revokeMsg{Lease: id})
	}
}

// handleStarted fires process-level fault injection: the worker just began
// running an attempt, so a kill delivered now lands mid-task.
func (c *Coordinator) handleStarted(w *workerConn, m startedMsg) {
	if c.cfg.Faults == nil {
		return
	}
	c.mu.Lock()
	li, ok := c.state.leases.active[m.Lease]
	c.mu.Unlock()
	if !ok || li.Worker != w.id {
		return
	}
	fault := c.cfg.Faults.WorkerFault(w.id, procPhase(li.Phase), li.GrantSeq)
	if fault == nil {
		return
	}
	c.logf("clusterd: injecting %s into worker %d (pid %d) on %s grant %d",
		fault.Action, w.id, w.pid, li.Phase, li.GrantSeq)
	go c.cfg.Signal(w.pid, fault)
}

func (c *Coordinator) handleSegReq(w *workerConn, m segReqMsg) {
	c.mu.Lock()
	e, ok := c.state.segs[m.MapTask]
	c.mu.Unlock()
	resp := segDataMsg{Seq: m.Seq}
	switch {
	case !ok:
		resp.Error = fmt.Sprintf("map task %d output not published", m.MapTask)
	case m.Partition < 0 || m.Partition >= len(e.parts):
		resp.Error = fmt.Sprintf("map task %d has no partition %d", m.MapTask, m.Partition)
	default:
		resp.Attempt = e.attempt
		resp.Data = e.parts[m.Partition]
	}
	w.send(kindSegData, resp)
}

// dispatchLoop binds pending grants to live workers, preferring the least
// loaded so speculative twins land on different processes. Each grant is
// journaled before the grant frame is sent; a crash in between (the
// proc:coord grant fault fires there) leaves a durable lease no worker
// learned of, forfeited as lost when its worker re-registers without
// claiming it.
func (c *Coordinator) dispatchLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case <-c.kick:
		}
		for {
			c.mu.Lock()
			if c.closed || len(c.pending) == 0 {
				c.mu.Unlock()
				break
			}
			var best *workerConn
			bestLoad := 0
			for _, w := range c.workers {
				if w.dead || w.draining || !w.welcomed {
					continue
				}
				load := c.state.leases.load(w.id)
				if best == nil || load < bestLoad {
					best, bestLoad = w, load
				}
			}
			if best == nil {
				c.mu.Unlock()
				break // no eligible worker; retry on next registration
			}
			g := c.pending[0]
			c.pending = c.pending[1:]
			li := c.state.leases.next(best.id, c.state.epoch, g.phase, g.task, g.attempt, time.Now())
			c.journalApply(jkGrant, evGrant{Lease: *li})
			g.lease = li.ID
			c.waiters[li.ID] = g
			c.gLeases.Set(int64(c.state.leases.count()))
			c.mu.Unlock()

			c.transitions["granted"].Inc()
			err := best.send(kindGrant, grantMsg{
				Lease: li.ID, Epoch: li.Epoch, Phase: g.phase, Task: g.task, Attempt: g.attempt,
			})
			if err != nil {
				c.retireWorker(best) // forfeits this grant via the lease table
			}
		}
	}
}

// expireLoop sweeps the lease table: attempts whose worker stopped
// heartbeating (SIGSTOP, kill -9, partition) — or whose worker never
// returned to re-adopt them after a coordinator restart — fail over to a
// fresh lease, their held time charged as waste.
func (c *Coordinator) expireLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.HeartbeatEvery / 2)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		c.mu.Lock()
		victims := c.forfeitLocked("expired", "heartbeat lapsed", lapsed(time.Now()))
		c.mu.Unlock()
		for _, v := range victims {
			c.logf("clusterd: lease %d (%s task %d attempt %d) expired on worker %d",
				v.li.ID, v.li.Phase, v.li.Task, v.li.Attempt, v.li.Worker)
			if v.w != nil && !v.w.dead {
				v.w.send(kindRevoke, revokeMsg{Lease: v.li.ID})
			}
		}
		c.finishForfeits(victims)
	}
}

// realSignal delivers a proc fault to a live worker process: kill is SIGKILL
// — no cleanup, no goodbye, the real thing — and hang is SIGSTOP for the
// configured delay, then SIGCONT, long enough for the heartbeat deadline to
// lapse and the lease to move.
func realSignal(pid int, fault *faults.ProcFault) {
	switch fault.Action {
	case faults.ActKill:
		syscall.Kill(pid, syscall.SIGKILL)
	case faults.ActHang:
		syscall.Kill(pid, syscall.SIGSTOP)
		time.Sleep(fault.Delay)
		syscall.Kill(pid, syscall.SIGCONT)
	}
}

// realSelfSignal delivers a proc:coord fault to this process. A hang parks
// the SIGCONT in a helper subprocess first — a stopped process cannot thaw
// itself.
func realSelfSignal(fault *faults.ProcFault) {
	pid := os.Getpid()
	switch fault.Action {
	case faults.ActKill:
		syscall.Kill(pid, syscall.SIGKILL)
		time.Sleep(time.Second) // SIGKILL lands first; never proceed past here
	case faults.ActHang:
		cmd := exec.Command("sh", "-c",
			fmt.Sprintf("sleep %.3f; kill -CONT %d", fault.Delay.Seconds(), pid))
		if cmd.Start() == nil {
			go cmd.Wait()
			syscall.Kill(pid, syscall.SIGSTOP)
		}
	}
}

package clusterd

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"scikey/internal/mapreduce"
)

// Runner executes one task attempt inside a worker process; ctx is the
// lease's, canceled when the coordinator revokes it. JobRunner is the
// production implementation; tests substitute stubs.
type Runner interface {
	Run(ctx context.Context, phase string, task, attempt int, fetch mapreduce.RemoteFetch) (*mapreduce.RemoteResult, error)
}

// WorkerConfig configures a worker process.
type WorkerConfig struct {
	// Addr is the coordinator's TCP address.
	Addr string
	// Build rebuilds the job from the coordinator's opaque spec and returns
	// the attempt runner. It runs once, after the first welcome; reconnects
	// reuse the runner (the spec is identical across coordinator restarts).
	Build func(spec []byte) (Runner, error)
	// Logf, when non-nil, receives worker diagnostics.
	Logf func(format string, args ...any)
}

// Worker is one worker process's connection to the coordinator: it
// registers, heartbeats, executes granted attempts, and reconnects on the
// package's redial schedule when the session drops. Leases belong to the
// Worker, not the session: an attempt keeps running through a coordinator
// outage, the next hello presents its (lease, epoch) claim, and if the
// restarted coordinator re-adopts it the attempt's outcome is delivered as if
// nothing happened. Drain (the SIGTERM path) stops new grants, lets in-flight
// attempts finish and their outcomes be acknowledged, and deregisters so no
// lease is left to time out.
type Worker struct {
	cfg WorkerConfig

	mu       sync.Mutex
	sess     *session
	id       int // coordinator-assigned identity; -1 until first welcome
	runner   Runner
	leases   map[int]*workerLease
	draining bool
	stopped  bool
	stop     context.Context // canceled by Stop, or by Drain with no session: ends a redial
	halt     context.CancelFunc
}

// outMsg is one lease's outcome frame: a complete or a fail.
type outMsg struct {
	lease int
	kind  byte
	v     any
}

// session is one live connection epoch. A reconnect builds a fresh one.
type session struct {
	*peer
	w         *Worker
	runner    Runner
	heartbeat time.Duration // the interval the coordinator's welcome asked for

	mu         sync.Mutex
	segSeq     int
	segWaiters map[int]chan segDataMsg
	done       chan struct{} // closed when the read loop exits
	closeOnce  sync.Once
}

// workerLease is one granted attempt in this process. epoch is the
// coordinator incarnation that granted it — the re-adoption claim.
//
// A lease outlives its attempt: once the attempt finishes, out holds its
// outcome until the coordinator acknowledges the settle by revoking the
// lease — its reply to the first heartbeat that names the lease after the
// settle, which on the one ordered connection cannot overtake it. A write
// that succeeded is not an outcome delivered: it may have gone into the
// socket of a coordinator that is already dead, or that was closing and
// dropped it. Until the ack the lease stays claimed, so a restarted
// coordinator re-adopts it (its settle was never journaled) and the outcome
// is sent again, or does not (the settle was journaled, and the driver's
// re-ask gets the journaled outcome).
type workerLease struct {
	id    int
	epoch int
	// ctx is the attempt's context; cancel revokes the lease, which stops
	// the attempt and its segment fetches.
	ctx    context.Context
	cancel context.CancelFunc
	out    *outMsg // guarded by Worker.mu; nil while the attempt runs
}

// errSessionLost marks a fetch that failed because the coordinator session
// dropped mid-flight; the worker-level fetch retries it on the next session.
var errSessionLost = errors.New("clusterd: session lost")

// NewWorker prepares a worker; Run drives it.
func NewWorker(cfg WorkerConfig) *Worker {
	w := &Worker{cfg: cfg, id: -1, leases: make(map[int]*workerLease)}
	w.stop, w.halt = context.WithCancel(context.Background())
	return w
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Run connects to the coordinator and serves grants until Drain completes
// or the connection is lost beyond the redial budget. A draining or stopped
// worker never redials: its session ending, or a dial failing, ends Run.
func (w *Worker) Run() error {
	for {
		var s *session
		err := redial(0, w.stop, func() (err error) {
			w.mu.Lock()
			quitting := w.stopped || w.draining
			w.mu.Unlock()
			if quitting {
				return errStopped
			}
			if s, err = w.register(); err != nil {
				w.logf("clusterd: worker session failed (%v), redialing", err)
			}
			return err
		})
		if err == errStopped {
			return nil
		}
		if err != nil {
			return fmt.Errorf("clusterd: worker gave up %w", err)
		}
		s.serve()
	}
}

// Drain begins a graceful shutdown: tell the coordinator to stop granting,
// finish in-flight attempts, then hang up. It returns immediately; Run
// returns once the drain completes.
func (w *Worker) Drain() {
	w.mu.Lock()
	w.draining = true
	s := w.sess
	w.mu.Unlock()
	if s == nil {
		w.halt()
		return
	}
	s.send(kindGoodbye, goodbyeMsg{Draining: true})
	w.closeIfIdle(s)
}

// Stop abandons everything immediately (test teardown).
func (w *Worker) Stop() {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	w.stopped = true
	s := w.sess
	leases := make([]*workerLease, 0, len(w.leases))
	for _, l := range w.leases {
		leases = append(leases, l)
	}
	w.mu.Unlock()
	w.halt()
	for _, l := range leases {
		l.cancel()
	}
	if s != nil {
		s.close()
	}
}

// claims snapshots the leases this worker still holds, for the hello.
func (w *Worker) claims() []leaseClaim {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]leaseClaim, 0, len(w.leases))
	for _, l := range w.leases {
		out = append(out, leaseClaim{Lease: l.id, Epoch: l.epoch})
	}
	return out
}

// register opens one connection epoch: dial, present identity and lease
// claims, build the runner on first welcome, reconcile the claims, and send
// the outcome of every re-adopted lease whose attempt has finished — sent
// before or not, none was acknowledged. Dial and handshake failures return
// the error (they count against the redial budget).
func (w *Worker) register() (*session, error) {
	w.mu.Lock()
	id, runner := w.id, w.runner
	w.mu.Unlock()
	var welcome welcomeMsg
	p, err := handshake(w.cfg.Addr, kindHello,
		helloMsg{PID: os.Getpid(), Worker: id, Claims: w.claims()}, kindWelcome, &welcome)
	if err != nil {
		return nil, err
	}
	if runner == nil {
		runner, err = w.cfg.Build(welcome.Spec)
		if err != nil {
			p.conn.Close()
			return nil, fmt.Errorf("clusterd: building job from spec: %w", err)
		}
	}
	s := &session{peer: p, w: w, runner: runner, heartbeat: welcome.HeartbeatEvery,
		segWaiters: make(map[int]chan segDataMsg), done: make(chan struct{})}

	// Reconcile claims: leases the coordinator re-adopted live on; the rest
	// were settled or forfeited while we were away — revoke them so their
	// attempts stop and their outcomes are dropped.
	readopted := make(map[int]bool, len(welcome.Readopted))
	for _, id := range welcome.Readopted {
		readopted[id] = true
	}
	w.mu.Lock()
	if w.stopped { // Stop raced the handshake; a session now would outlive it
		w.mu.Unlock()
		p.conn.Close()
		return nil, errStopped
	}
	w.runner = runner
	w.id = welcome.Worker
	w.sess = s
	draining := w.draining
	var abandoned []*workerLease
	var flush []*outMsg
	for id, l := range w.leases {
		switch {
		case !readopted[id]:
			abandoned = append(abandoned, l)
			delete(w.leases, id)
		case l.out != nil:
			flush = append(flush, l.out)
		}
	}
	w.mu.Unlock()
	for _, l := range abandoned {
		l.cancel()
	}
	for _, out := range flush {
		s.report(out) // a failed send leaves it for the next registration
	}
	if draining { // Drain raced the dial; bow out before taking work
		s.send(kindGoodbye, goodbyeMsg{Draining: true})
		w.closeIfIdle(s)
	}
	w.logf("clusterd: registered as worker %d (epoch %d, %d leases re-adopted)",
		welcome.Worker, welcome.Epoch, len(welcome.Readopted))
	return s, nil
}

// serve heartbeats and executes grants until the connection ends.
func (s *session) serve() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.heartbeatLoop()
	}()
	s.readLoop()
	wg.Wait()

	s.w.mu.Lock()
	if s.w.sess == s {
		s.w.sess = nil
	}
	s.w.mu.Unlock()
}

// closeIfIdle hangs up a draining worker's session once it holds no lease:
// no attempt is in flight and every outcome has been acknowledged.
func (w *Worker) closeIfIdle(s *session) {
	w.mu.Lock()
	idle := len(w.leases) == 0
	w.mu.Unlock()
	if idle {
		s.close()
	}
}

// report sends a finished attempt's outcome, then a heartbeat naming only its
// lease. The coordinator handles the two in order, so that heartbeat finds the
// lease settled and is answered with the revoke that acknowledges the outcome
// — within a round trip rather than at the next tick, which would hold the
// outcome (a map attempt's whole output) for up to a heartbeat interval.
func (s *session) report(out *outMsg) {
	if s.send(out.kind, out.v) == nil {
		s.send(kindHeartbeat, heartbeatMsg{Leases: []int{out.lease}})
	}
}

// liveSession returns the current registered session, or nil.
func (w *Worker) liveSession() *session {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sess
}

// close ends the session; the read loop unblocks with an error.
func (s *session) close() {
	s.closeOnce.Do(func() { s.conn.Close() })
}

func (s *session) heartbeatLoop() {
	every := s.heartbeat
	if every <= 0 {
		every = 100 * time.Millisecond
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-tick.C:
		}
		s.w.mu.Lock()
		var leases []int
		for id := range s.w.leases {
			leases = append(leases, id)
		}
		s.w.mu.Unlock()
		if s.send(kindHeartbeat, heartbeatMsg{Leases: leases}) != nil {
			return
		}
	}
}

// readLoop serves coordinator frames until the connection ends. Leases are
// NOT revoked when the session drops — the attempts keep running through the
// outage, to be re-adopted (or abandoned) at the next registration. Only
// in-flight segment fetches fail over, with a retryable error.
func (s *session) readLoop() {
	defer func() {
		close(s.done)
		s.close()
		s.mu.Lock()
		waiters := s.segWaiters
		s.segWaiters = make(map[int]chan segDataMsg)
		s.mu.Unlock()
		for _, ch := range waiters {
			ch <- segDataMsg{Error: errSessionLost.Error()}
		}
	}()
	for {
		msg, err := readMsg(s.conn)
		if err != nil {
			return
		}
		switch msg.kind {
		case kindGrant:
			var m grantMsg
			if msg.decode(&m) == nil {
				s.w.startGrant(s.runner, m)
			}
		case kindRevoke:
			// Either the coordinator withdrew a running attempt, or it is
			// acknowledging a settled one; the lease goes either way.
			var m revokeMsg
			if msg.decode(&m) == nil {
				s.w.mu.Lock()
				l := s.w.leases[m.Lease]
				delete(s.w.leases, m.Lease)
				draining := s.w.draining
				s.w.mu.Unlock()
				if l != nil {
					l.cancel()
				}
				if draining {
					s.w.closeIfIdle(s)
				}
			}
		case kindSegData:
			var m segDataMsg
			if msg.decode(&m) == nil {
				s.mu.Lock()
				ch := s.segWaiters[m.Seq]
				delete(s.segWaiters, m.Seq)
				s.mu.Unlock()
				if ch != nil {
					ch <- m
				}
			}
		default:
			return // coordinator-bound kind from the coordinator: broken peer
		}
	}
}

// startGrant launches one attempt. The worker refuses grants while
// draining (a race with goodbye) as ordinary failures so the scheduler
// reissues them elsewhere.
func (w *Worker) startGrant(runner Runner, m grantMsg) {
	w.mu.Lock()
	draining := w.draining
	if !draining {
		l := &workerLease{id: m.Lease, epoch: m.Epoch}
		l.ctx, l.cancel = context.WithCancel(context.Background())
		w.leases[m.Lease] = l
		w.mu.Unlock()
		go w.runGrant(runner, m, l)
		return
	}
	s := w.sess
	w.mu.Unlock()
	if s != nil {
		s.send(kindFail, failMsg{Lease: m.Lease, Error: "worker draining"})
	}
}

// runGrant executes one granted attempt and reports its outcome. The outcome
// stays on the lease until the coordinator acknowledges it (see
// workerLease); one that cannot be sent now goes out with the next
// registration if that re-adopts the lease. A lease revoked while its attempt
// ran has nothing left to report.
func (w *Worker) runGrant(runner Runner, m grantMsg, l *workerLease) {
	if s := w.liveSession(); s != nil {
		s.send(kindStarted, startedMsg{Lease: m.Lease})
	}
	rr, err := runner.Run(l.ctx, m.Phase, m.Task, m.Attempt, func(mapTask, part int) ([]byte, int, error) {
		return w.fetch(l, mapTask, part)
	})

	out := &outMsg{lease: m.Lease, kind: kindComplete, v: completeMsg{Lease: m.Lease, Result: rr}}
	if err != nil {
		out = &outMsg{lease: m.Lease, kind: kindFail, v: classifyFailure(m.Lease, err)}
	}
	w.mu.Lock()
	held := w.leases[m.Lease] == l
	if held {
		l.out = out
	}
	s := w.sess
	w.mu.Unlock()
	if held && s != nil {
		s.report(out)
	}
}

// fetch retrieves one map output segment from the coordinator's segment
// store. A fetch that loses its session waits for the reconnect loop to
// register a new one and retries — published segments are journaled on the
// coordinator, so they survive its restart. Revoking the lease ends it with
// mapreduce.ErrAttemptCanceled.
func (w *Worker) fetch(l *workerLease, mapTask, part int) ([]byte, int, error) {
	wait := time.NewTicker(5 * time.Millisecond)
	defer wait.Stop()
	for {
		if s := w.liveSession(); s != nil {
			data, attempt, err := s.fetch(l.ctx, mapTask, part)
			if err == nil {
				return data, attempt, nil
			}
			if !errors.Is(err, errSessionLost) {
				return nil, 0, err
			}
		}
		select {
		case <-w.stop.Done():
			return nil, 0, errors.New("clusterd: worker stopped")
		case <-l.ctx.Done():
			return nil, 0, mapreduce.ErrAttemptCanceled
		case <-wait.C:
		}
	}
}

// fetch issues one segment request on this session, correlated by sequence
// number on the shared connection. errSessionLost means the session dropped
// before the answer arrived; canceling ctx abandons the wait with
// mapreduce.ErrAttemptCanceled.
func (s *session) fetch(ctx context.Context, mapTask, part int) ([]byte, int, error) {
	ch := make(chan segDataMsg, 1)
	s.mu.Lock()
	select {
	case <-s.done:
		s.mu.Unlock()
		return nil, 0, errSessionLost
	default:
	}
	s.segSeq++
	seq := s.segSeq
	s.segWaiters[seq] = ch
	s.mu.Unlock()

	if err := s.send(kindSegReq, segReqMsg{Seq: seq, MapTask: mapTask, Partition: part}); err != nil {
		s.mu.Lock()
		delete(s.segWaiters, seq)
		s.mu.Unlock()
		return nil, 0, errSessionLost
	}
	var m segDataMsg
	select {
	case m = <-ch:
	case <-ctx.Done():
		s.mu.Lock()
		delete(s.segWaiters, seq) // ch is buffered: a late answer never blocks the read loop
		s.mu.Unlock()
		return nil, 0, mapreduce.ErrAttemptCanceled
	}
	if m.Error == errSessionLost.Error() {
		return nil, 0, errSessionLost
	}
	if m.Error != "" {
		return nil, 0, fmt.Errorf("clusterd: segment fetch map %d part %d: %s", mapTask, part, m.Error)
	}
	return m.Data, m.Attempt, nil
}

// classifyFailure maps an attempt error onto the wire so the coordinator
// can rebuild it in the engine's vocabulary.
func classifyFailure(lease int, err error) failMsg {
	m := failMsg{Lease: lease, Error: err.Error()}
	if errors.Is(err, mapreduce.ErrAttemptCanceled) {
		m.Canceled = true
	}
	var ce *mapreduce.ErrCorruptSegment
	if errors.As(err, &ce) {
		m.Corrupt = &corruptInfo{MapTask: ce.MapTask, Partition: ce.Partition, Attempt: ce.Attempt}
	}
	return m
}

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

// Client is the driver side of the cluster runtime: it implements
// mapreduce.Remote over a TCP connection to the coordinator, so the attempt
// scheduler can live in a different process than the control plane — which
// is what lets the coordinator be SIGKILLed and respawned without taking the
// job down.
//
// The client owns reconnection: when the coordinator vanishes it redials on
// the package's reconnect schedule and re-sends every outstanding submission and
// unacknowledged publish. Submissions are idempotent on (phase, task,
// attempt) — the restarted coordinator binds each re-send to the surviving
// lease, the journaled orphan outcome, or a fresh grant — so from the
// scheduler's point of view a coordinator crash is at most extra latency and
// some waste, never a wrong answer.
type Client struct {
	cfg ClientConfig

	mu     sync.Mutex
	conn   *peer // nil while disconnected
	seq    int
	calls  map[int]*clientCall
	epoch  int
	closed bool
	broken error // set when the redial budget is exhausted

	stop context.Context // canceled by Close; ends a redial
	halt context.CancelFunc
	wg   sync.WaitGroup
}

// ClientConfig configures a Client.
type ClientConfig struct {
	// Addr is the coordinator's TCP address.
	Addr string
	// Logf, when non-nil, receives driver-side diagnostics.
	Logf func(format string, args ...any)
}

// clientCall is one outstanding request: a run submission awaiting its
// result, or a publish awaiting its ack (delivered as an empty result). Calls
// keep their seq across reconnects; delivered guards against double
// completion.
type clientCall struct {
	seq       int
	kind      byte // kindRunReq or kindPublish
	run       runReqMsg
	pub       publishMsg
	canceled  bool
	delivered bool
	res       chan runResultMsg
}

// msg is the call's request frame payload.
func (call *clientCall) msg() any {
	if call.kind == kindPublish {
		return call.pub
	}
	return call.run
}

// Dial connects to the coordinator at cfg.Addr and starts the reconnect
// manager. The initial connection is attempted synchronously so a bad
// address fails fast; later losses are redialed in the background.
func Dial(cfg ClientConfig) (*Client, error) {
	cl := &Client{cfg: cfg, calls: make(map[int]*clientCall)}
	cc, epoch, err := cl.dial()
	if err != nil {
		return nil, err
	}
	cl.stop, cl.halt = context.WithCancel(context.Background())
	cl.conn = cc
	cl.epoch = epoch
	cl.wg.Add(1)
	go cl.manage(cc)
	return cl, nil
}

func (cl *Client) logf(format string, args ...any) {
	if cl.cfg.Logf != nil {
		cl.cfg.Logf(format, args...)
	}
}

// Close ends the client; outstanding calls fail.
func (cl *Client) Close() error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	cc := cl.conn
	cl.mu.Unlock()
	cl.halt()
	if cc != nil {
		cc.send(kindGoodbye, goodbyeMsg{})
		cc.conn.Close()
	}
	cl.failAll(errors.New("clusterd: client closed"))
	cl.wg.Wait()
	return nil
}

// dial establishes one session: connect, driverHello, driverWelcome.
func (cl *Client) dial() (*peer, int, error) {
	var welcome driverWelcomeMsg
	cc, err := handshake(cl.cfg.Addr, kindDriverHello, driverHelloMsg{PID: os.Getpid()}, kindDriverWelcome, &welcome)
	return cc, welcome.Epoch, err
}

// manage serves the current connection and redials lost ones, re-sending
// outstanding calls after each successful reconnect.
func (cl *Client) manage(cc *peer) {
	defer cl.wg.Done()
	for {
		cl.readLoop(cc)
		cl.mu.Lock()
		if cl.conn == cc {
			cl.conn = nil
		}
		closed := cl.closed
		cl.mu.Unlock()
		if closed {
			return
		}
		cl.logf("clusterd: coordinator connection lost, redialing")

		var epoch int
		err := redial(1, cl.stop, func() (err error) {
			cc, epoch, err = cl.dial()
			return err
		})
		if err == errStopped {
			return
		}
		if err != nil {
			cl.failAll(fmt.Errorf("clusterd: coordinator unreachable %w", err))
			return
		}
		cl.mu.Lock()
		prev := cl.epoch
		cl.epoch = epoch
		cl.conn = cc
		resend := make([]*clientCall, 0, len(cl.calls))
		for _, call := range cl.calls {
			resend = append(resend, call)
		}
		cl.mu.Unlock()
		if epoch != prev {
			cl.logf("clusterd: reconnected to coordinator epoch %d (was %d), re-sending %d calls",
				epoch, prev, len(resend))
		}
		for _, call := range resend {
			cl.resend(cc, call)
		}
	}
}

// resend replays one outstanding call onto a fresh connection. A canceled
// run call is completed locally instead — the scheduler no longer wants the
// result, and re-submitting it could start a fresh execution.
func (cl *Client) resend(cc *peer, call *clientCall) {
	cl.mu.Lock()
	canceled := call.canceled
	cl.mu.Unlock()
	if canceled {
		cl.deliver(call, runResultMsg{Seq: call.seq, Canceled: true})
		return
	}
	cc.send(call.kind, call.msg())
}

// readLoop dispatches responses on one connection until it dies.
func (cl *Client) readLoop(cc *peer) {
	for {
		msg, err := readMsg(cc.conn)
		if err != nil {
			cc.conn.Close()
			return
		}
		if msg.kind != kindRunResult && msg.kind != kindPubAck {
			cc.conn.Close()
			return
		}
		// Either answer completes the call its Seq names; a pubAck decodes
		// as a result carrying nothing else.
		var m runResultMsg
		if msg.decode(&m) == nil {
			cl.mu.Lock()
			call := cl.calls[m.Seq]
			cl.mu.Unlock()
			if call != nil {
				cl.deliver(call, m)
			}
		}
	}
}

// deliver completes a call exactly once.
func (cl *Client) deliver(call *clientCall, m runResultMsg) {
	cl.mu.Lock()
	if call.delivered {
		cl.mu.Unlock()
		return
	}
	call.delivered = true
	delete(cl.calls, call.seq)
	cl.mu.Unlock()
	call.res <- m
}

// failAll completes every outstanding call with an error (redial budget
// exhausted or client closed) and refuses future calls.
func (cl *Client) failAll(err error) {
	cl.mu.Lock()
	if cl.broken == nil {
		cl.broken = err
	}
	calls := make([]*clientCall, 0, len(cl.calls))
	for _, call := range cl.calls {
		calls = append(calls, call)
	}
	cl.mu.Unlock()
	for _, call := range calls {
		cl.deliver(call, runResultMsg{Seq: call.seq, Error: err.Error()})
	}
}

// register assigns a seq, tracks the call, and sends it if connected; a
// disconnected client leaves the send to the reconnect manager.
func (cl *Client) register(call *clientCall) error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return errors.New("clusterd: client closed")
	}
	if cl.broken != nil {
		err := cl.broken
		cl.mu.Unlock()
		return err
	}
	cl.seq++
	call.seq, call.run.Seq, call.pub.Seq = cl.seq, cl.seq, cl.seq
	call.res = make(chan runResultMsg, 1)
	cl.calls[call.seq] = call
	cc := cl.conn
	cl.mu.Unlock()
	if cc != nil && cc.send(call.kind, call.msg()) != nil {
		cc.conn.Close() // manager redials and re-sends
	}
	return nil
}

// RunRemote implements mapreduce.Remote: it submits the attempt to the
// coordinator and blocks until its outcome arrives — surviving coordinator
// restarts in between — or the scheduler cancels it.
func (cl *Client) RunRemote(phase string, task, attempt int, canceled func() bool) (*mapreduce.RemoteResult, error) {
	call := &clientCall{kind: kindRunReq, run: runReqMsg{Phase: phase, Task: task, Attempt: attempt}}
	if err := cl.register(call); err != nil {
		return nil, err
	}

	poll := time.NewTicker(2 * time.Millisecond)
	defer poll.Stop()
	for {
		select {
		case m := <-call.res:
			return m.Result, m.err()
		case <-poll.C:
			if canceled != nil && canceled() {
				// The cancel is sent (or completes locally) once; from here
				// only the definitive answer ends the wait, so the
				// coordinator-side lease is revoked before we return.
				cl.cancel(call)
				canceled = nil
				poll.Stop()
			}
		}
	}
}

// cancel withdraws a run call. Connected: the coordinator revokes the lease
// and always answers with a runResult. Disconnected: the call completes
// locally as canceled and will not be re-sent.
func (cl *Client) cancel(call *clientCall) {
	cl.mu.Lock()
	if call.delivered || call.canceled {
		cl.mu.Unlock()
		return // result already buffered (the caller consumes it) or cancel already sent
	}
	call.canceled = true
	cc := cl.conn
	cl.mu.Unlock()
	if cc == nil || cc.send(kindCancel, cancelMsg{Seq: call.seq}) != nil {
		cl.deliver(call, runResultMsg{Seq: call.seq, Canceled: true})
	}
}

// PublishRemote implements mapreduce.Remote: it ships a committed map
// attempt's segments to the coordinator and blocks until the journaled ack —
// after which the publication survives coordinator crashes, which is why the
// engine may safely grant reduces.
func (cl *Client) PublishRemote(mapTask, attempt int, parts [][]byte) {
	call := &clientCall{kind: kindPublish, pub: publishMsg{MapTask: mapTask, Attempt: attempt, Parts: parts}}
	if err := cl.register(call); err != nil {
		cl.logf("clusterd: publish map %d attempt %d dropped: %v", mapTask, attempt, err)
		return
	}
	<-call.res
}

// Epoch reports the coordinator incarnation the client last connected to.
func (cl *Client) Epoch() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.epoch
}

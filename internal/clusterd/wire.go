package clusterd

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"scikey/internal/backoff"
	"scikey/internal/mapreduce"
)

// Wire protocol: one persistent connection per peer, carrying framed
// messages in both directions. Every frame is
//
//	kind u8 | len u32 | crc32 u32 | payload [len]byte
//
// (integers big-endian, CRC32 IEEE over the payload, payloads JSON). The
// frame CRC is the same end-to-end integrity idiom the shufflenet transport
// uses: a corrupted frame is detected at the reader and tears the session
// down rather than delivering garbage into the lease state machine. The
// coordinator journal appends the identical frame shape to disk (its own
// kind space), so replay shares the torn/corrupt-frame detection with the
// wire.
//
// Two peer roles share the connection grammar:
//
// Workers: the worker connects, sends hello{PID, Worker, Claims}, and the
// coordinator answers welcome{Worker, Epoch, Spec, HeartbeatEvery, LeaseTTL,
// Readopted}. Worker is the ID a re-registering worker already holds (-1 for
// a fresh one); Claims presents the leases it still carries from before a
// dropped session, each with the coordinator epoch it was granted under, and
// Readopted lists the claims the coordinator accepted — the worker abandons
// the rest. After that the worker heartbeats on schedule and the coordinator
// pushes grant frames; the worker answers each grant with started, then
// complete or fail. Reduce attempts pull map output segments through
// segReq/segData pairs correlated by Seq. goodbye{Draining} starts a
// graceful drain.
//
// The driver (the process running the attempt scheduler): connects, sends
// driverHello, and the coordinator answers driverWelcome{Epoch}. runReq
// submits one attempt (correlated by Seq); the coordinator answers with
// runResult carrying the attempt outcome — possibly long after a coordinator
// crash and restart, because submissions are idempotent on (phase, task,
// attempt) and re-sent by the driver on reconnect. cancel withdraws a
// submitted attempt; the coordinator always answers it with a runResult.
// publish installs a committed map output (journaled before the pubAck, so
// an acked publish survives a coordinator crash).
const (
	kindHello byte = iota + 1
	kindWelcome
	kindHeartbeat
	kindGrant
	kindStarted
	kindComplete
	kindFail
	kindRevoke
	kindSegReq
	kindSegData
	kindGoodbye
	kindDriverHello
	kindDriverWelcome
	kindRunReq
	kindRunResult
	kindCancel
	kindPublish
	kindPubAck
)

// maxFrame bounds one frame's payload so a corrupt length field cannot make
// the reader allocate unbounded memory.
const maxFrame = 1 << 30

// frameAllocChunk bounds the reader's up-front allocation: a frame header
// claiming a huge length only grows the buffer as bytes actually arrive, so
// a truncated or hostile frame cannot balloon memory before its CRC check.
const frameAllocChunk = 1 << 20

// leaseClaim is one lease a re-registering worker still holds: its ID and
// the coordinator epoch it was granted under. A claim is re-adopted only if
// the coordinator's (replayed) lease table still tracks the lease for this
// worker at this epoch.
type leaseClaim struct {
	Lease int
	Epoch int
}

type helloMsg struct {
	PID int
	// Worker is the ID assigned by a previous welcome (-1 on first
	// registration). Presenting it lets a reconnecting worker keep its
	// identity — the coordinate fault schedules and the lease table bind to.
	Worker int
	// Claims lists the leases the worker still holds from before the
	// session dropped, for re-adoption.
	Claims []leaseClaim
}

type welcomeMsg struct {
	Worker int
	// Epoch is the coordinator's incarnation; grants stamp it into leases.
	Epoch          int
	Spec           []byte
	HeartbeatEvery time.Duration
	LeaseTTL       time.Duration
	// Readopted lists the hello claims the coordinator accepted: those
	// leases live on exactly as granted. The worker must abandon claims not
	// listed (their attempts were forfeited and will be re-granted).
	Readopted []int
}

type heartbeatMsg struct {
	// Leases lists the lease IDs the worker believes it holds; the
	// coordinator renews them and revokes any it no longer tracks.
	Leases []int
}

type grantMsg struct {
	Lease   int
	Epoch   int
	Phase   string
	Task    int
	Attempt int
}

type startedMsg struct {
	Lease int
}

type completeMsg struct {
	Lease  int
	Result *mapreduce.RemoteResult
}

// corruptInfo carries a reduce-side corruption detection across the wire so
// the coordinator can rebuild the *mapreduce.ErrCorruptSegment that drives
// map re-execution.
type corruptInfo struct {
	MapTask   int
	Partition int
	Attempt   int
}

type failMsg struct {
	Lease    int
	Error    string
	Canceled bool
	Corrupt  *corruptInfo
}

type revokeMsg struct {
	Lease int
}

type segReqMsg struct {
	Seq       int
	MapTask   int
	Partition int
}

type segDataMsg struct {
	Seq     int
	Attempt int
	Data    []byte
	Error   string
}

type goodbyeMsg struct {
	Draining bool
}

type driverHelloMsg struct {
	PID int
}

type driverWelcomeMsg struct {
	Epoch int
}

// runReqMsg submits one attempt for remote execution. Submissions are
// idempotent on (Phase, Task, Attempt): a driver reconnecting after a
// coordinator restart re-sends its outstanding requests, and the restarted
// coordinator binds each to the surviving lease, the journaled outcome, or a
// fresh grant — never a duplicate execution of a live attempt.
type runReqMsg struct {
	Seq     int
	Phase   string
	Task    int
	Attempt int
}

// runResultMsg is one attempt's outcome. Result and Error may both be set:
// a forfeited lease still reports the partial footprint charged as waste.
type runResultMsg struct {
	Seq      int
	Result   *mapreduce.RemoteResult
	Error    string
	Canceled bool
	Corrupt  *corruptInfo
}

// err rebuilds the outcome's error in the engine's vocabulary, so canceled
// attempts stay silent and corrupt-segment detections drive map re-execution
// exactly as in-process failures do.
func (m *runResultMsg) err() error {
	switch {
	case m.Canceled:
		return mapreduce.ErrAttemptCanceled
	case m.Corrupt != nil:
		return &mapreduce.ErrCorruptSegment{
			MapTask:   m.Corrupt.MapTask,
			Partition: m.Corrupt.Partition,
			Attempt:   m.Corrupt.Attempt,
			Err:       errors.New(m.Error),
		}
	case m.Error != "":
		return errors.New(m.Error)
	default:
		return nil
	}
}

type cancelMsg struct {
	Seq int
}

type publishMsg struct {
	Seq     int
	MapTask int
	Attempt int
	Parts   [][]byte
}

type pubAckMsg struct {
	Seq int
}

// writeFrame frames and writes one raw payload: kind, big-endian length,
// CRC32 of the payload, payload bytes. Callers serialize writes per
// destination themselves.
func writeFrame(w io.Writer, kind byte, payload []byte) error {
	hdr := make([]byte, 9, 9+len(payload))
	hdr[0] = kind
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[5:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(append(hdr, payload...))
	return err
}

// readFrame reads one frame and returns its kind and CRC-verified payload.
// The payload buffer grows only as bytes arrive, so a corrupt or hostile
// length field cannot force a large allocation up front.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	kind := hdr[0]
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("clusterd: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, 0, min(n, frameAllocChunk))
	for uint32(len(payload)) < n {
		step := min(n-uint32(len(payload)), frameAllocChunk)
		old := len(payload)
		payload = append(payload, make([]byte, step)...)
		if _, err := io.ReadFull(r, payload[old:]); err != nil {
			return 0, nil, err
		}
	}
	if got := crc32.ChecksumIEEE(payload); got != binary.BigEndian.Uint32(hdr[5:]) {
		return 0, nil, fmt.Errorf("clusterd: frame CRC mismatch on kind %d", kind)
	}
	return kind, payload, nil
}

// writeMsg frames and writes one wire message.
func writeMsg(w io.Writer, kind byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("clusterd: marshal kind %d: %v", kind, err)
	}
	return writeFrame(w, kind, payload)
}

// readMsg reads one wire frame and returns its kind and verified payload.
func readMsg(r io.Reader) (byte, []byte, error) {
	kind, payload, err := readFrame(r)
	if err != nil {
		return 0, nil, err
	}
	if kind < kindHello || kind > kindPubAck {
		return 0, nil, fmt.Errorf("clusterd: unknown frame kind %d", kind)
	}
	return kind, payload, nil
}

// peer is one end of a connection; every role (the coordinator's view of a
// worker or a driver, a worker's session, the driver Client) writes frames
// through it, serialized per destination.
type peer struct {
	conn net.Conn
	wmu  sync.Mutex
}

func (p *peer) send(kind byte, v any) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return writeMsg(p.conn, kind, v)
}

// handshake opens one session with the coordinator at addr: connect, send
// the role's hello, and decode the answering welcome, which must arrive as
// the next frame.
func handshake(addr string, helloKind byte, hello any, welcomeKind byte, welcome any) (*peer, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &peer{conn: conn}
	err = p.send(helloKind, hello)
	var kind byte
	var payload []byte
	if err == nil {
		kind, payload, err = readMsg(conn)
	}
	if err == nil && kind != welcomeKind {
		err = fmt.Errorf("clusterd: expected frame kind %d, got frame kind %d", welcomeKind, kind)
	}
	if err == nil {
		err = decode(payload, welcome)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return p, nil
}

// Workers and drivers redial a lost coordinator on one schedule: 50 ms
// doubling to a 2 s cap, giving up after maxDials consecutive failures —
// generous enough to ride out a coordinator restart.
const maxDials = 40

var reconnect = backoff.Policy{Base: 50 * time.Millisecond, Max: 2 * time.Second}

// errStopped ends a redial whose owner shut down while it was waiting.
var errStopped = errors.New("clusterd: stopped")

// redial calls dial until it succeeds, sleeping the reconnect backoff
// (jittered per process and role) between failures. It returns nil on
// success, errStopped when dial says so or stop closes during a sleep, and
// the last failure once the budget is spent.
func redial(role int64, stop <-chan struct{}, dial func() error) error {
	for dials := 1; ; dials++ {
		err := dial()
		if err == nil || err == errStopped {
			return err
		}
		if dials >= maxDials {
			return fmt.Errorf("after %d dials: %w", dials, err)
		}
		if !backoff.Sleep(reconnect.Delay(int64(os.Getpid()), role, dials), stop) {
			return errStopped
		}
	}
}

// decode unmarshals a frame payload into v.
func decode(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("clusterd: bad frame payload: %v", err)
	}
	return nil
}

package clusterd

import (
	"context"
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
// (integers big-endian, CRC32 IEEE over the payload). A message is one
// header frame — its kind and a JSON payload — followed by one blob frame
// (kindBlob) per byte field it carries:
//
//	message := header blob*
//	header  := kind | len | crc32 | JSON (its "Blobs" member: one length per blob, -1 for a nil field)
//	blob    := kindBlob | len | crc32 | raw bytes
//
// A message without byte fields has no "Blobs" member and is a lone
// header. Byte fields — map segments, a reduce's output — cross the
// connection raw: they are never base64-encoded, never scanned by the JSON
// decoder, and the reader hands each blob's buffer to the field it fills.
// The writer sends a header and its blobs with one vectored write.
//
// The frame CRC is the same end-to-end integrity idiom the shufflenet
// transport uses: a corrupted frame is detected at the reader and tears the
// session down rather than delivering garbage into the lease state machine.
// The coordinator journal appends the identical message shape to disk (its
// own header kinds, the same kindBlob), so replay shares the
// torn/corrupt-frame detection with the wire.
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

// kindBlob marks a blob frame: one byte field of the message whose header
// frame precedes it. The wire and the journal share it.
const kindBlob byte = 0xFF

// frameHeader is the size of a frame's kind, length and CRC fields.
const frameHeader = 9

// maxFrame bounds one frame's payload, and one message's frames together,
// so a corrupt length field cannot make the reader allocate unbounded
// memory.
const maxFrame = 1 << 30

// frameAllocChunk bounds the reader's up-front allocation: a frame header
// claiming a huge length only grows the buffer as bytes actually arrive, so
// a truncated or hostile frame cannot balloon memory before its CRC check.
const frameAllocChunk = 1 << 20

// blobList is a header's announcement of the blob frames that follow it:
// one length per byte field, in the order the message's fields method lists
// them, -1 for a nil field (whose blob frame is empty). Messages with byte
// fields embed it; empty, it is left out of the header.
type blobList struct {
	Blobs []int `json:",omitempty"`
}

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
	blobList
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
	blobList
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
	blobList
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
	blobList
	Seq     int
	MapTask int
	Attempt int
	Parts   [][]byte
}

type pubAckMsg struct {
	Seq int
}

// message is one protocol unit as it travels, on the wire or as a journal
// record: its kind, its JSON header and the blobs the header announces.
type message struct {
	kind   byte
	header []byte
	blobs  [][]byte
}

// writeTo writes the message as framed: the header frame, then one blob
// frame per byte field, with a single vectored write (writev on a socket).
// Nothing is concatenated, so a blob's bytes go out from the buffer that
// holds them. It returns the bytes written. Callers serialize writes per
// destination themselves.
func (m message) writeTo(w io.Writer) (int64, error) {
	hdrs := make([]byte, frameHeader*(1+len(m.blobs)))
	bufs := make(net.Buffers, 0, 2*(1+len(m.blobs)))
	frame := func(i int, kind byte, payload []byte) {
		h := hdrs[i*frameHeader : (i+1)*frameHeader]
		h[0] = kind
		binary.BigEndian.PutUint32(h[1:], uint32(len(payload)))
		binary.BigEndian.PutUint32(h[5:], crc32.ChecksumIEEE(payload))
		bufs = append(bufs, h, payload)
	}
	frame(0, m.kind, m.header)
	for i, b := range m.blobs {
		frame(i+1, kindBlob, b)
	}
	return bufs.WriteTo(w)
}

// readFrame reads one frame and returns its kind and CRC-verified payload.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	payload, err := readPayload(r, &hdr)
	return hdr[0], payload, err
}

// readPayload reads the payload of the frame whose header is hdr and checks
// its CRC. The buffer grows in place and only as bytes arrive: it starts at
// one chunk at most and, once full, grows to four times what has arrived
// (or to the frame's length), so a corrupt or hostile length field costs
// at most one chunk beyond the input, and a 3 MiB frame costs 4 MiB.
func readPayload(r io.Reader, hdr *[frameHeader]byte) ([]byte, error) {
	n := int(binary.BigEndian.Uint32(hdr[1:]))
	if n > maxFrame {
		return nil, fmt.Errorf("clusterd: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, 0, min(n, frameAllocChunk))
	for len(payload) < n {
		if len(payload) == cap(payload) {
			// Not slices.Grow: under the race detector its append of a
			// fresh slice allocates that slice too.
			grown := make([]byte, len(payload), min(n, 4*len(payload)))
			copy(grown, payload)
			payload = grown
		}
		got, err := io.ReadFull(r, payload[len(payload):cap(payload)])
		payload = payload[:len(payload)+got]
		if err != nil {
			return nil, err
		}
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[5:]) {
		return nil, fmt.Errorf("clusterd: frame CRC mismatch on kind %d", hdr[0])
	}
	return payload, nil
}

// readRecord reads one message, from the wire or the journal: a header
// frame and the blob frames its Blobs member announces. Only that member is
// decoded. A blob frame where a header is due, a header frame where a blob
// is due, a blob whose length differs from its announcement, or an
// announcement beyond maxFrame fails the read. A nil field's blob comes
// back nil, an empty one empty.
func readRecord(r io.Reader) (message, error) {
	kind, header, err := readFrame(r)
	if err != nil {
		return message{}, err
	}
	if kind == kindBlob {
		return message{}, errors.New("clusterd: blob frame where a header is due")
	}
	var ann blobList
	if err := json.Unmarshal(header, &ann); err != nil {
		return message{}, fmt.Errorf("clusterd: bad header on kind %d: %v", kind, err)
	}
	total := frameHeader + len(header)
	for _, n := range ann.Blobs {
		if n < -1 {
			return message{}, fmt.Errorf("clusterd: header announces a blob of %d bytes", n)
		}
		if total += frameHeader + max(n, 0); total > maxFrame {
			return message{}, fmt.Errorf("clusterd: message of %d blobs exceeds limit", len(ann.Blobs))
		}
	}
	m := message{kind: kind, header: header}
	if len(ann.Blobs) > 0 {
		m.blobs = make([][]byte, len(ann.Blobs))
	}
	for i, n := range ann.Blobs {
		var hdr [frameHeader]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return message{}, err
		}
		if hdr[0] != kindBlob {
			return message{}, fmt.Errorf("clusterd: frame kind %d where blob %d of %d is due", hdr[0], i, len(m.blobs))
		}
		if got := binary.BigEndian.Uint32(hdr[1:]); got != uint32(max(n, 0)) {
			return message{}, fmt.Errorf("clusterd: blob %d is %d bytes, header announced %d", i, got, n)
		}
		b, err := readPayload(r, &hdr)
		if err != nil {
			return message{}, err
		}
		if n >= 0 {
			m.blobs[i] = b
		}
	}
	return m, nil
}

// writeMsg frames and writes one wire message.
func writeMsg(w io.Writer, kind byte, v any) error {
	m, err := encodeMsg(kind, v)
	if err == nil {
		_, err = m.writeTo(w)
	}
	return err
}

// readMsg reads one wire message.
func readMsg(r io.Reader) (message, error) {
	m, err := readRecord(r)
	if err != nil {
		return message{}, err
	}
	if m.kind < kindHello || m.kind > kindPubAck {
		return message{}, fmt.Errorf("clusterd: unknown frame kind %d", m.kind)
	}
	return m, nil
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
	var m message
	if err == nil {
		m, err = readMsg(conn)
	}
	if err == nil && m.kind != welcomeKind {
		err = fmt.Errorf("clusterd: expected frame kind %d, got frame kind %d", welcomeKind, m.kind)
	}
	if err == nil {
		err = m.decode(welcome)
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
// success, errStopped when dial says so or stop is canceled during a sleep,
// and the last failure once the budget is spent.
func redial(role int64, stop context.Context, dial func() error) error {
	for dials := 1; ; dials++ {
		err := dial()
		if err == nil || err == errStopped {
			return err
		}
		if dials >= maxDials {
			return fmt.Errorf("after %d dials: %w", dials, err)
		}
		if !backoff.Sleep(stop, reconnect.Delay(int64(os.Getpid()), role, dials)) {
			return errStopped
		}
	}
}

// A carrier is a message with byte fields: completeMsg, runResultMsg,
// publishMsg and segDataMsg on the wire, evSettle, evPublish and
// evCheckpoint in the journal. detach (value receiver) appends the fields'
// bytes, which travel as blob frames, to blobs and returns the copy its
// header frame carries — every byte field nil, the slices that hold them
// kept at full length — for encodeMsg to announce them in; fields (pointer
// receiver) points at the byte fields of a decoded header in the same
// order. A nil field stays distinct from an empty one.
type carrier interface {
	detach(blobs *[][]byte) announcer
}

// announcer is a carrier's header copy, whose embedded blobList takes the
// announcement.
type announcer interface {
	announce(blobs [][]byte)
}

// blobSink is a decoded carrier.
type blobSink interface {
	fields() []*[]byte
}

// encodeMsg builds the message of kind for v: v's header, and its byte
// fields as blobs.
func encodeMsg(kind byte, v any) (message, error) {
	m := message{kind: kind}
	if c, ok := v.(carrier); ok {
		h := c.detach(&m.blobs)
		h.announce(m.blobs)
		v = h
	}
	var err error
	if m.header, err = json.Marshal(v); err != nil {
		return message{}, fmt.Errorf("clusterd: marshal kind %d: %v", kind, err)
	}
	return m, nil
}

// decode unmarshals the message's header into v and hands each blob to the
// byte field it fills, without a copy. A header that came without blobs
// keeps whatever byte fields it carries inline (base64): the v1 record form,
// which no v2 writer produces and openJournal refuses.
func (m message) decode(v any) error {
	if err := json.Unmarshal(m.header, v); err != nil {
		return fmt.Errorf("clusterd: bad frame payload: %v", err)
	}
	if len(m.blobs) == 0 {
		return nil
	}
	var fields []*[]byte
	if s, ok := v.(blobSink); ok {
		fields = s.fields()
	}
	if len(fields) != len(m.blobs) {
		return fmt.Errorf("clusterd: header has %d byte fields for %d blobs", len(fields), len(m.blobs))
	}
	for i, f := range fields {
		*f = m.blobs[i]
	}
	return nil
}

// announce sets the Blobs member for a message's byte fields.
func (l *blobList) announce(blobs [][]byte) {
	l.Blobs = make([]int, len(blobs))
	for i, b := range blobs {
		if l.Blobs[i] = len(b); b == nil {
			l.Blobs[i] = -1
		}
	}
}

// detachResult returns the header copy of r and appends its byte fields
// (Output, then Parts) to blobs.
func detachResult(r *mapreduce.RemoteResult, blobs *[][]byte) *mapreduce.RemoteResult {
	if r == nil {
		return nil
	}
	c := *r
	*blobs = append(*blobs, r.Output)
	c.Output = nil
	c.Parts = detachParts(r.Parts, blobs)
	return &c
}

func resultFields(f []*[]byte, r *mapreduce.RemoteResult) []*[]byte {
	if r == nil {
		return f
	}
	return partsFields(append(f, &r.Output), r.Parts)
}

// detachParts returns the header copy of parts — as many nil entries — and
// appends the parts to blobs.
func detachParts(parts [][]byte, blobs *[][]byte) [][]byte {
	*blobs = append(*blobs, parts...)
	if parts == nil {
		return nil
	}
	return make([][]byte, len(parts))
}

func partsFields(f []*[]byte, parts [][]byte) []*[]byte {
	for i := range parts {
		f = append(f, &parts[i])
	}
	return f
}

func (m completeMsg) detach(b *[][]byte) announcer {
	m.Result = detachResult(m.Result, b)
	return &m
}

func (m *completeMsg) fields() []*[]byte { return resultFields(nil, m.Result) }

func (m runResultMsg) detach(b *[][]byte) announcer {
	m.Result = detachResult(m.Result, b)
	return &m
}

func (m *runResultMsg) fields() []*[]byte { return resultFields(nil, m.Result) }

func (m publishMsg) detach(b *[][]byte) announcer {
	m.Parts = detachParts(m.Parts, b)
	return &m
}

func (m *publishMsg) fields() []*[]byte { return partsFields(nil, m.Parts) }

func (m segDataMsg) detach(b *[][]byte) announcer {
	*b = append(*b, m.Data)
	m.Data = nil
	return &m
}

func (m *segDataMsg) fields() []*[]byte { return []*[]byte{&m.Data} }

package shufflenet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"time"
)

// Transient fetch failures, distinguished for error text and tests; all of
// them are retried within the fetch budget.
var (
	errNotPublished = errors.New("map output not published on node")
	errTruncated    = errors.New("response ended before the full segment")
	errChunkCRC     = errors.New("chunk crc mismatch")
	errProtocol     = errors.New("protocol violation")
	errNodeDown     = errors.New("node down")
	errRefused      = errors.New("connection refused: node not listening")
	errBreakerOpen  = errors.New("circuit breaker open")
)

// ErrCanceled reports a fetch abandoned because its caller stopped.
var ErrCanceled = errors.New("shufflenet: fetch canceled")

// FetchError reports a segment fetch that exhausted its attempt budget: the
// map output is lost as far as this reducer is concerned, and the engine
// should re-execute the producing map task.
type FetchError struct {
	Node      int
	MapTask   int
	Partition int
	Attempts  int
	Err       error // last transient failure
}

func (e *FetchError) Error() string {
	return fmt.Sprintf("shufflenet: fetch of map %d partition %d from node %d failed after %d attempts: %v",
		e.MapTask, e.Partition, e.Node, e.Attempts, e.Err)
}

func (e *FetchError) Unwrap() error { return e.Err }

// FetchResult is one successfully fetched segment.
type FetchResult struct {
	Data        []byte // verified segment bytes (nil for an empty partition)
	Attempt     int    // the map attempt that produced Data
	Resumed     bool   // at least one attempt resumed mid-segment
	WastedBytes int64  // verified bytes this fetch had to throw away
}

// fetchState carries the verified prefix across a fetch's attempts.
type fetchState struct {
	buf          []byte
	attempt      int // map attempt buf belongs to; -1 before first response
	complete     bool
	resumed      bool
	resumedBytes int64
	wasted       int64
}

// Fetch retrieves one partition of one map task's output from its node,
// retrying transient failures on the backoff schedule and resuming each
// retry from the last verified byte offset. stop (optional) abandons the
// fetch between attempts and cuts sleeps short.
func (s *Service) Fetch(stop <-chan struct{}, mapTask, part int) (FetchResult, error) {
	node := s.NodeOf(mapTask)
	br := s.breakers[node]
	st := &fetchState{attempt: -1}
	s.metrics.Fetches.Add(1)

	budget := s.cfg.fetchAttempts()
	var lastErr error
	for attempt := 0; attempt < budget; attempt++ {
		if attempt > 0 {
			s.metrics.Retries.Add(1)
			d := s.cfg.Backoff.Delay(int64(mapTask), int64(part), attempt)
			if !s.sleepStop(d, stop) {
				return FetchResult{}, ErrCanceled
			}
		}
		if stopped(stop) {
			return FetchResult{}, ErrCanceled
		}
		if !br.allow() {
			s.metrics.BreakerSkips.Add(1)
			lastErr = fmt.Errorf("%w: node %d", errBreakerOpen, node)
			continue
		}
		if !s.acquire(node, stop) {
			return FetchResult{}, ErrCanceled
		}
		t0 := time.Now()
		err := s.fetchOnce(node, mapTask, part, attempt, st)
		s.fetchHist[node].Observe(time.Since(t0).Seconds())
		s.release(node)
		if err == nil {
			br.success()
			if st.resumed {
				s.metrics.Resumes.Add(1)
				s.metrics.ResumedBytes.Add(st.resumedBytes)
			}
			s.metrics.WastedBytes.Add(st.wasted)
			return FetchResult{
				Data:        st.buf,
				Attempt:     st.attempt,
				Resumed:     st.resumed,
				WastedBytes: st.wasted,
			}, nil
		}
		lastErr = err
		br.failure()
	}

	// Budget exhausted: everything verified so far is waste, and the caller
	// must treat the map output as lost.
	st.wasted += int64(len(st.buf))
	s.metrics.WastedBytes.Add(st.wasted)
	s.metrics.SegmentsLost.Add(1)
	return FetchResult{WastedBytes: st.wasted}, &FetchError{
		Node: node, MapTask: mapTask, Partition: part,
		Attempts: budget, Err: lastErr,
	}
}

// fetchOnce runs a single request/response exchange, appending verified
// chunks to st.buf. Any error leaves st.buf a valid verified prefix to
// resume from.
func (s *Service) fetchOnce(node, mapTask, part, fetchAttempt int, st *fetchState) error {
	if s.cfg.Injector.NodeDown(node) {
		return fmt.Errorf("%w: node %d", errNodeDown, node)
	}
	addr, ok := s.addr(node)
	if !ok {
		return fmt.Errorf("%w: node %d", errRefused, node)
	}
	conn, err := net.DialTimeout("tcp", addr, s.cfg.fetchTimeout())
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(s.cfg.fetchTimeout()))

	if err := writeRequest(conn, request{
		mapTask:      mapTask,
		partition:    part,
		fetchAttempt: fetchAttempt,
		haveAttempt:  st.attempt,
		offset:       int64(len(st.buf)),
	}); err != nil {
		return err
	}
	hdr, err := readRespHeader(conn)
	if err != nil {
		return err
	}
	switch hdr.status {
	case statusNotPublished:
		return fmt.Errorf("%w: map %d", errNotPublished, mapTask)
	case statusEmpty:
		st.wasted += int64(len(st.buf))
		st.buf = nil
		st.attempt = hdr.attempt
		st.complete = true
		return nil
	}

	if hdr.attempt != st.attempt && st.attempt >= 0 {
		// The map task was re-executed since our last attempt; the prefix we
		// hold belongs to dead output.
		st.wasted += int64(len(st.buf))
		st.buf = st.buf[:0]
	}
	st.attempt = hdr.attempt
	if hdr.start != int64(len(st.buf)) {
		if hdr.start != 0 {
			return fmt.Errorf("%w: response starts at %d, have %d", errProtocol, hdr.start, len(st.buf))
		}
		// Server declined our resume offset: start over.
		st.wasted += int64(len(st.buf))
		st.buf = st.buf[:0]
	}
	if hdr.start > 0 {
		st.resumed = true
		st.resumedBytes += hdr.start
	}

	// Size the buffer for the whole declared transfer up front: chunks then
	// land directly in their final position, with no growth-reallocation
	// copies of already-verified bytes. The total is bounds-checked against
	// each chunk below, exactly as before; a lying header costs at most one
	// allocation, same as a completed transfer would.
	if int64(cap(st.buf)) < hdr.total {
		grown := make([]byte, len(st.buf), hdr.total)
		copy(grown, st.buf)
		st.buf = grown
	}

	var chunkHdr [8]byte
	for {
		if _, err := io.ReadFull(conn, chunkHdr[:]); err != nil {
			return err
		}
		n := binary.BigEndian.Uint32(chunkHdr[0:])
		if n == 0 {
			break
		}
		want := binary.BigEndian.Uint32(chunkHdr[4:])
		if int64(len(st.buf))+int64(n) > hdr.total {
			return fmt.Errorf("%w: chunks overrun declared total", errProtocol)
		}
		// Read the chunk into the tail of buf, then keep it only if its CRC
		// verifies — len(st.buf) stays the verified resume offset.
		tail := len(st.buf)
		st.buf = st.buf[:tail+int(n)]
		if _, err := io.ReadFull(conn, st.buf[tail:]); err != nil {
			st.buf = st.buf[:tail]
			return err
		}
		if crc32.ChecksumIEEE(st.buf[tail:]) != want {
			st.buf = st.buf[:tail]
			s.metrics.CRCErrors.Add(1)
			return errChunkCRC
		}
		s.metrics.BytesFetched.Add(int64(n))
	}
	if int64(len(st.buf)) != hdr.total {
		return fmt.Errorf("%w: got %d of %d bytes", errTruncated, len(st.buf), hdr.total)
	}
	st.complete = true
	return nil
}

// acquire takes a per-node fetch slot; false means the caller stopped or
// the service closed first.
func (s *Service) acquire(node int, stop <-chan struct{}) bool {
	select {
	case s.slots[node] <- struct{}{}:
		return true
	default:
	}
	select {
	case s.slots[node] <- struct{}{}:
		return true
	case <-stop:
		return false
	case <-s.done:
		return false
	}
}

func (s *Service) release(node int) { <-s.slots[node] }

// sleepStop waits d, returning early (false) if the caller stops or the
// service closes.
func (s *Service) sleepStop(d time.Duration, stop <-chan struct{}) bool {
	if d <= 0 {
		return !stopped(stop)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	case <-s.done:
		return false
	}
}

func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

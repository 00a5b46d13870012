package shufflenet

import (
	"hash/crc32"
	"net"
	"time"

	"scikey/internal/faults"
)

// serve accepts connections for one node until the listener closes.
func (s *Service) serve(node int, l net.Listener) {
	defer s.handlers.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.handlers.Add(1)
		go s.handle(conn)
	}
}

// handle answers one request on one connection, applying any injected
// server-side fault at the exact point a real network would exhibit it.
func (s *Service) handle(conn net.Conn) {
	defer s.handlers.Done()
	defer s.untrack(conn)
	defer conn.Close()

	// A generous server-side deadline so a vanished client can never wedge
	// a handler; injected stalls extend it since stalling is their point.
	ioBudget := 4 * s.cfg.fetchTimeout()
	if ioBudget < 5*time.Second {
		ioBudget = 5 * time.Second
	}

	conn.SetDeadline(time.Now().Add(ioBudget))
	req, err := readRequest(conn)
	if err != nil {
		return
	}

	// The segment is looked up first: a rule that acts on its bytes fires
	// only where there are bytes to act on.
	pub, ok := s.lookup(req.mapTask)
	var data []byte
	if ok && req.partition >= 0 && req.partition < len(pub.parts) {
		data = pub.parts[req.partition]
	}
	f := s.cfg.Injector.FetchFault(req.mapTask, req.partition, req.fetchAttempt, len(data) > 0)
	if f != nil {
		switch f.Action {
		case faults.ActRefuse:
			return // slam the door: no response at all
		case faults.ActStall:
			conn.SetDeadline(time.Now().Add(ioBudget + f.Delay))
			if !s.sleepDone(f.Delay) {
				return
			}
		}
	}

	if !ok {
		writeRespHeader(conn, respHeader{status: statusNotPublished})
		return
	}
	if len(data) == 0 {
		writeRespHeader(conn, respHeader{status: statusEmpty, attempt: pub.attempt})
		return
	}

	// Honor the client's resume offset only while it still names the attempt
	// being served; a re-executed map task restarts the transfer from zero.
	start := req.offset
	if req.haveAttempt != pub.attempt || start > int64(len(data)) {
		start = 0
	}
	if err := writeRespHeader(conn, respHeader{
		status:  statusOK,
		attempt: pub.attempt,
		total:   int64(len(data)),
		start:   start,
	}); err != nil {
		return
	}

	remaining := data[start:]
	// cut/truncate stop partway through the remaining bytes: cut slams the
	// connection mid-chunk, truncate ends the chunk stream cleanly short.
	stopAfter := int64(-1)
	if f != nil && (f.Action == faults.ActCut || f.Action == faults.ActTruncate) {
		stopAfter = int64(len(remaining)) / 2
	}

	// Clients resume at whole-chunk boundaries (the verified prefix grows
	// chunk by chunk), so start is chunk-aligned and every chunk served
	// lines up with a commit-time CRC from Publish — the committed bytes
	// are neither copied nor rescanned on this path. The on-the-fly
	// fallback only guards a foreign client with an odd offset.
	cb := s.cfg.chunkBytes()
	crcIdx := -1
	if start%int64(cb) == 0 {
		crcIdx = int(start / int64(cb))
	}
	crcs := pub.crcs[req.partition]
	var sc chunkScratch

	sent := int64(0)
	first := true
	for len(remaining) > 0 {
		chunk := remaining
		if len(chunk) > cb {
			chunk = chunk[:cb]
		}
		if stopAfter >= 0 && sent+int64(len(chunk)) > stopAfter {
			if f.Action == faults.ActTruncate {
				writeEnd(conn)
			} else {
				// Mid-chunk disconnect: frame a full chunk, deliver half.
				var hdr [8]byte
				hdr[0] = byte(len(chunk) >> 24)
				hdr[1] = byte(len(chunk) >> 16)
				hdr[2] = byte(len(chunk) >> 8)
				hdr[3] = byte(len(chunk))
				conn.Write(hdr[:])
				conn.Write(chunk[:len(chunk)/2])
			}
			return
		}
		var corrupted []byte
		if f != nil && f.Action == faults.ActCorrupt && first {
			corrupted = f.CorruptBytes(chunk)
		}
		var crc uint32
		if crcIdx >= 0 {
			crc = crcs[crcIdx]
			crcIdx++
		} else {
			crc = crc32.ChecksumIEEE(chunk)
		}
		if err := writeChunk(conn, &sc, chunk, corrupted, crc); err != nil {
			return
		}
		first = false
		sent += int64(len(chunk))
		remaining = remaining[len(chunk):]
	}
	writeEnd(conn)
}

// sleepDone waits d unless the service shuts down first.
func (s *Service) sleepDone(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.done:
		return false
	}
}

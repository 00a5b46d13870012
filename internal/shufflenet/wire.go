package shufflenet

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
)

// Wire protocol, one request/response per connection, all integers
// big-endian:
//
//	request  := magic u32 | mapTask u32 | partition u32 | fetchAttempt u32
//	          | haveAttempt i32 | offset u64
//	response := status u8 | attempt u32 | total u64 | start u64 | chunk*
//	chunk    := len u32 | crc32 u32 | payload [len]byte      (len 0 ends)
//
// haveAttempt is the map attempt whose verified prefix the client already
// holds (-1 for none); offset is that prefix's length. The server serves
// from offset when the attempt still matches, from 0 otherwise — start in
// the response header says which happened, so the client knows whether its
// buffered prefix is still good or is now waste. Every chunk carries the
// CRC32 (IEEE) of its payload; the client appends only chunks that verify,
// making len(buffer) the resume offset for the next attempt.

const (
	reqMagic   = 0x534e4631 // "SNF1"
	reqLen     = 4 + 4 + 4 + 4 + 4 + 8
	respHdrLen = 1 + 4 + 8 + 8

	statusOK           = 0 // data follows from start
	statusEmpty        = 1 // partition exists and is empty
	statusNotPublished = 2 // map task's output not (yet) on this node
)

type request struct {
	mapTask      int
	partition    int
	fetchAttempt int
	haveAttempt  int // -1: none
	offset       int64
}

type respHeader struct {
	status  byte
	attempt int
	total   int64
	start   int64
}

func writeRequest(w io.Writer, r request) error {
	var buf [reqLen]byte
	binary.BigEndian.PutUint32(buf[0:], reqMagic)
	binary.BigEndian.PutUint32(buf[4:], uint32(r.mapTask))
	binary.BigEndian.PutUint32(buf[8:], uint32(r.partition))
	binary.BigEndian.PutUint32(buf[12:], uint32(r.fetchAttempt))
	binary.BigEndian.PutUint32(buf[16:], uint32(int32(r.haveAttempt)))
	binary.BigEndian.PutUint64(buf[20:], uint64(r.offset))
	_, err := w.Write(buf[:])
	return err
}

func readRequest(r io.Reader) (request, error) {
	var buf [reqLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return request{}, err
	}
	if binary.BigEndian.Uint32(buf[0:]) != reqMagic {
		return request{}, fmt.Errorf("shufflenet: bad request magic")
	}
	req := request{
		mapTask:      int(binary.BigEndian.Uint32(buf[4:])),
		partition:    int(binary.BigEndian.Uint32(buf[8:])),
		fetchAttempt: int(binary.BigEndian.Uint32(buf[12:])),
		haveAttempt:  int(int32(binary.BigEndian.Uint32(buf[16:]))),
		offset:       int64(binary.BigEndian.Uint64(buf[20:])),
	}
	if req.offset < 0 {
		return request{}, fmt.Errorf("shufflenet: negative request offset")
	}
	return req, nil
}

func writeRespHeader(w io.Writer, h respHeader) error {
	var buf [respHdrLen]byte
	buf[0] = h.status
	binary.BigEndian.PutUint32(buf[1:], uint32(h.attempt))
	binary.BigEndian.PutUint64(buf[5:], uint64(h.total))
	binary.BigEndian.PutUint64(buf[13:], uint64(h.start))
	_, err := w.Write(buf[:])
	return err
}

func readRespHeader(r io.Reader) (respHeader, error) {
	var buf [respHdrLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return respHeader{}, err
	}
	h := respHeader{
		status:  buf[0],
		attempt: int(binary.BigEndian.Uint32(buf[1:])),
		total:   int64(binary.BigEndian.Uint64(buf[5:])),
		start:   int64(binary.BigEndian.Uint64(buf[13:])),
	}
	if h.status > statusNotPublished || h.total < 0 || h.start < 0 || h.start > h.total {
		return respHeader{}, fmt.Errorf("shufflenet: malformed response header")
	}
	return h, nil
}

// chunkCRCs precomputes the CRC32 (IEEE) of every chunkBytes-sized slice of
// data, so handlers serve committed bytes without rescanning them — the CRC
// is computed once, at Publish.
func chunkCRCs(data []byte, chunkBytes int) []uint32 {
	if len(data) == 0 {
		return nil
	}
	crcs := make([]uint32, (len(data)+chunkBytes-1)/chunkBytes)
	for i := range crcs {
		c := data[i*chunkBytes:]
		if len(c) > chunkBytes {
			c = c[:chunkBytes]
		}
		crcs[i] = crc32.ChecksumIEEE(c)
	}
	return crcs
}

// chunkScratch is one handler's framing state, reused across its chunks.
// net.Buffers.WriteTo consumes the vector it is handed down to zero
// capacity, so bufs is rebuilt over vec for every chunk; appending to the
// consumed vector instead reallocated it once per chunk.
type chunkScratch struct {
	hdr  [8]byte
	vec  [2][]byte
	bufs net.Buffers
}

// writeChunk frames one payload chunk with its precomputed CRC, handing the
// header and the committed payload bytes to the connection in a single
// writev call (net.Buffers) — the payload is never copied into a user-space
// staging buffer. corrupted, when non-nil, is sent in place of the payload
// while the CRC still covers the original bytes — the injected bit-flip a
// client-side CRC check must catch.
func writeChunk(w io.Writer, sc *chunkScratch, payload, corrupted []byte, crc uint32) error {
	binary.BigEndian.PutUint32(sc.hdr[0:], uint32(len(payload)))
	binary.BigEndian.PutUint32(sc.hdr[4:], crc)
	body := payload
	if corrupted != nil {
		body = corrupted
	}
	sc.vec = [2][]byte{sc.hdr[:], body}
	sc.bufs = sc.vec[:]
	_, err := sc.bufs.WriteTo(w)
	return err
}

// writeEnd terminates the chunk stream.
func writeEnd(w io.Writer) error {
	var hdr [8]byte // zero length, zero crc
	_, err := w.Write(hdr[:])
	return err
}

// Package ifile implements the on-disk format of Hadoop intermediate data
// (modeled on org.apache.hadoop.mapred.IFile): a stream of records, each
// framed as
//
//	VInt(keyLength) VInt(valueLength) key-bytes value-bytes
//
// terminated by an end-of-file marker (two VInt(-1) bytes) and a 4-byte
// big-endian CRC-32 (IEEE) of everything before it.
//
// This format embodies the assumption the paper attacks (Section II-B(a)):
// "Hadoop uses its assumption [that key/value pairs are independent] in its
// file format for intermediate data, where every key has a separate field."
// The two framing bytes per small record are the "file overhead" bar of
// Fig. 8, and the fixed 6-byte trailer is why the introduction's 10^6-record
// spill files measure 26,000,006 and 33,000,006 bytes.
package ifile

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"scikey/internal/binutil"
)

// TrailerLen is the fixed per-stream overhead: the two-byte EOF marker plus
// the four-byte checksum.
const TrailerLen = 6

// ErrChecksum reports a corrupted stream.
var ErrChecksum = errors.New("ifile: CRC mismatch")

// Stats decomposes the bytes of a written stream the way Fig. 8 does.
type Stats struct {
	Records  int64
	KeyBytes int64
	ValBytes int64
	// FrameBytes counts the per-record VInt length fields.
	FrameBytes int64
	// TrailerBytes is TrailerLen once the stream is closed.
	TrailerBytes int64
}

// Total returns the full stream size in bytes.
func (s Stats) Total() int64 {
	return s.KeyBytes + s.ValBytes + s.FrameBytes + s.TrailerBytes
}

// Writer emits records in IFile framing. The zero value is not ready for
// use; call NewWriter, or Reset to (re)bind an existing Writer — possibly a
// pooled one — to a destination.
type Writer struct {
	w       io.Writer
	crc     uint32
	stats   Stats
	closed  bool
	scratch [2 * binutil.MaxVLongLen]byte
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	nw := &Writer{}
	nw.Reset(w)
	return nw
}

// Reset rebinds the Writer to a new destination stream, clearing all state.
func (w *Writer) Reset(dst io.Writer) {
	w.w = dst
	w.crc = 0
	w.stats = Stats{}
	w.closed = false
}

func (w *Writer) emit(p []byte) error {
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	_, err := w.w.Write(p)
	return err
}

// Append writes one record.
func (w *Writer) Append(key, value []byte) error {
	if w.closed {
		return errors.New("ifile: append after Close")
	}
	hdr := binutil.AppendVLong(w.scratch[:0], int64(len(key)))
	hdr = binutil.AppendVLong(hdr, int64(len(value)))
	if err := w.emit(hdr); err != nil {
		return err
	}
	if err := w.emit(key); err != nil {
		return err
	}
	if err := w.emit(value); err != nil {
		return err
	}
	w.stats.Records++
	w.stats.KeyBytes += int64(len(key))
	w.stats.ValBytes += int64(len(value))
	w.stats.FrameBytes += int64(len(hdr))
	return nil
}

// Close writes the EOF marker and checksum. It does not close the
// underlying writer.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.scratch[0], w.scratch[1] = 0xff, 0xff // VInt(-1), VInt(-1)
	if err := w.emit(w.scratch[:2]); err != nil {
		return err
	}
	sum := w.crc
	var tail [4]byte
	tail[0] = byte(sum >> 24)
	tail[1] = byte(sum >> 16)
	tail[2] = byte(sum >> 8)
	tail[3] = byte(sum)
	if _, err := w.w.Write(tail[:]); err != nil {
		return err
	}
	w.stats.TrailerBytes = TrailerLen
	return nil
}

// Stats returns the byte decomposition so far. TrailerBytes is populated
// only after Close.
func (w *Writer) Stats() Stats { return w.stats }

// Reader iterates the records of an IFile stream, verifying the checksum
// when the EOF marker is reached.
type Reader struct {
	r    *bufio.Reader
	crc  uint32
	done bool
	key  []byte
	val  []byte
	// scratch collects one VLong's framing bytes so they reach the CRC in
	// a single update from Reader-owned storage (a stack buffer would
	// escape into crc32.Update, one heap allocation per length field).
	scratch [binutil.MaxVLongLen]byte
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	nr := &Reader{}
	nr.Reset(r)
	return nr
}

// Reset rebinds the Reader to a new stream. The internal buffered reader and
// the key/value scratch buffers are retained, so a pooled Reader iterates
// segment after segment without per-segment allocation.
func (r *Reader) Reset(src io.Reader) {
	if r.r == nil {
		r.r = bufio.NewReader(src)
	} else {
		r.r.Reset(src)
	}
	r.crc = 0
	r.done = false
	r.key = r.key[:0]
	r.val = r.val[:0]
}

// crcByteReader routes every byte consumed for record framing through the
// checksum.
func (r *Reader) readVLong() (int64, error) {
	first, err := r.r.ReadByte()
	if err != nil {
		// A well-formed stream always ends with the EOF marker and
		// checksum, so running out of bytes here means truncation.
		return 0, unexpected(err)
	}
	r.scratch[0] = first
	if int8(first) >= -112 {
		r.crc = crc32.Update(r.crc, crc32.IEEETable, r.scratch[:1])
		return int64(int8(first)), nil
	}
	var n int
	neg := false
	if int8(first) >= -120 {
		n = int(-112 - int8(first))
	} else {
		neg = true
		n = int(-120 - int8(first))
	}
	var v int64
	for i := 0; i < n; i++ {
		c, err := r.r.ReadByte()
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		r.scratch[1+i] = c
		v = v<<8 | int64(c)
	}
	r.crc = crc32.Update(r.crc, crc32.IEEETable, r.scratch[:1+n])
	if neg {
		v = ^v
	}
	return v, nil
}

// Next returns the next record. The returned slices are owned by the Reader
// and valid until the following call. At end of stream it verifies the
// checksum and returns io.EOF.
func (r *Reader) Next() (key, value []byte, err error) {
	if r.done {
		return nil, nil, io.EOF
	}
	keyLen, err := r.readVLong()
	if err != nil {
		return nil, nil, err
	}
	if keyLen == -1 {
		valLen, err := r.readVLong()
		if err != nil {
			return nil, nil, err
		}
		if valLen != -1 {
			return nil, nil, fmt.Errorf("ifile: bad EOF marker (%d)", valLen)
		}
		want := r.crc
		var tail [4]byte
		if _, err := io.ReadFull(r.r, tail[:]); err != nil {
			return nil, nil, unexpected(err)
		}
		got := uint32(tail[0])<<24 | uint32(tail[1])<<16 | uint32(tail[2])<<8 | uint32(tail[3])
		r.done = true
		if got != want {
			return nil, nil, ErrChecksum
		}
		return nil, nil, io.EOF
	}
	valLen, err := r.readVLong()
	if err != nil {
		return nil, nil, err
	}
	if keyLen < 0 || valLen < 0 || keyLen > math.MaxInt32 || valLen > math.MaxInt32 {
		return nil, nil, fmt.Errorf("ifile: implausible record lengths %d/%d", keyLen, valLen)
	}
	if r.key, err = readBody(r.r, r.key, keyLen); err != nil {
		return nil, nil, err
	}
	if r.val, err = readBody(r.r, r.val, valLen); err != nil {
		return nil, nil, err
	}
	r.crc = crc32.Update(r.crc, crc32.IEEETable, r.key)
	r.crc = crc32.Update(r.crc, crc32.IEEETable, r.val)
	return r.key, r.val, nil
}

// readBody reads exactly n bytes into (a resized) buf. When the buffer must
// grow it does so geometrically as bytes actually arrive — seeded at 1 MiB
// and capped at n — so the steady-state path is a single capacity check and
// one ReadFull, yet a corrupt header still cannot force an allocation more
// than ~2x the bytes the stream really delivers.
func readBody(r io.Reader, buf []byte, n int64) ([]byte, error) {
	const seed = 1 << 20
	if int64(cap(buf)) >= n {
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return buf[:0], unexpected(err)
		}
		return buf, nil
	}
	buf = buf[:0]
	for int64(len(buf)) < n {
		if len(buf) == cap(buf) {
			newCap := min(max(2*int64(cap(buf)), seed), n)
			grown := make([]byte, len(buf), newCap)
			copy(grown, buf)
			buf = grown
		}
		start := len(buf)
		buf = buf[:min(int64(cap(buf)), n)]
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return buf[:0], unexpected(err)
		}
	}
	return buf, nil
}

func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// RecordOverhead returns the framing cost of one record with the given key
// and value sizes.
func RecordOverhead(keyLen, valLen int) int {
	return binutil.VLongLen(int64(keyLen)) + binutil.VLongLen(int64(valLen))
}

// VerifyStream reads an IFile stream to its end — checking the framing and
// the trailing checksum — without retaining any records, and returns the
// stream's byte decomposition. The networked shuffle uses it to vouch for a
// fetched segment (attributing corruption to its producing map attempt at
// fetch time) before the segment enters a merge.
func VerifyStream(r io.Reader) (Stats, error) {
	var s Stats
	rd := NewReader(r)
	for {
		k, v, err := rd.Next()
		if err == io.EOF {
			s.TrailerBytes = TrailerLen
			return s, nil
		}
		if err != nil {
			return s, err
		}
		s.Records++
		s.KeyBytes += int64(len(k))
		s.ValBytes += int64(len(v))
		s.FrameBytes += int64(RecordOverhead(len(k), len(v)))
	}
}

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
	"encoding/binary"
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

// blockSize is the unit the Writer works in: it gathers this many stream
// bytes before it checksums and writes them. Per-record pieces are a few
// bytes each; feeding those to crc32 one at a time costs more than the sum.
const blockSize = 4096

// Writer emits records in IFile framing. The zero value is not ready for
// use; call NewWriter, or Reset to (re)bind an existing Writer — possibly a
// pooled one — to a destination.
//
// Stream bytes are gathered into an owned block and reach the checksum and
// the destination a block at a time, so a destination write error surfaces
// at a later Append or at Close; once seen it is returned by every call.
type Writer struct {
	w      io.Writer
	crc    uint32
	stats  Stats
	closed bool
	err    error
	n      int // bytes gathered in block
	block  [blockSize]byte
	// scratch holds a record header or the EOF marker on its way into the
	// block (a stack buffer would escape through the destination's Write).
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
	w.err = nil
	w.n = 0
}

// emit sums p and hands it to the destination.
func (w *Writer) emit(p []byte) {
	if w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	_, w.err = w.w.Write(p)
}

// put gathers p into the block, emitting the block each time it fills. A
// piece that would fill an empty block by itself is emitted from where it is.
func (w *Writer) put(p []byte) {
	for len(p) > 0 {
		if w.n == 0 && len(p) >= blockSize {
			w.emit(p)
			return
		}
		c := copy(w.block[w.n:], p)
		w.n += c
		p = p[c:]
		if w.n == blockSize {
			w.emit(w.block[:])
			w.n = 0
		}
	}
}

// Append writes one record.
func (w *Writer) Append(key, value []byte) error {
	if w.closed {
		return errors.New("ifile: append after Close")
	}
	hdr := binutil.AppendVLong(w.scratch[:0], int64(len(key)))
	hdr = binutil.AppendVLong(hdr, int64(len(value)))
	w.put(hdr)
	w.put(key)
	w.put(value)
	if w.err != nil {
		return w.err
	}
	w.stats.Records++
	w.stats.KeyBytes += int64(len(key))
	w.stats.ValBytes += int64(len(value))
	w.stats.FrameBytes += int64(len(hdr))
	return nil
}

// Close writes the EOF marker and checksum, flushing the last block. It
// does not close the underlying writer.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.scratch[0], w.scratch[1] = 0xff, 0xff // VInt(-1), VInt(-1)
	w.put(w.scratch[:2])
	w.emit(w.block[:w.n])
	w.n = 0
	if w.err != nil {
		return w.err
	}
	tail := binary.BigEndian.AppendUint32(w.block[:0], w.crc)
	if _, w.err = w.w.Write(tail); w.err != nil {
		return w.err
	}
	w.stats.TrailerBytes = TrailerLen
	return nil
}

// Stats returns the byte decomposition so far. TrailerBytes is populated
// only after Close.
func (w *Writer) Stats() Stats { return w.stats }

// Reader iterates the records of an IFile stream held whole in memory.
// Records are read where they lie: Next returns sub-slices of the stream,
// capacity-capped so an append cannot reach the next record, and the
// checksum is one update at the EOF marker.
type Reader struct {
	data []byte
	pos  int
	done bool
}

// NewReader returns a Reader over the stream held in data.
func NewReader(data []byte) *Reader {
	r := &Reader{}
	r.ResetBytes(data)
	return r
}

// ResetBytes rebinds the Reader to a stream held whole in data, which must
// not change while it is read.
func (r *Reader) ResetBytes(data []byte) {
	r.data, r.pos, r.done = data, 0, false
}

// shortHeader reads the common record header, both lengths below 128 and
// one byte each, at b[p:]. ok is false for any other header and when b
// ends inside this one; header reads those. It is the inlined first try of
// every header Next and Verify read.
func shortHeader(b []byte, p int) (keyLen, valLen int64, ok bool) {
	if len(b)-p >= 2 && b[p]|b[p+1] < 0x80 {
		return int64(b[p]), int64(b[p+1]), true
	}
	return 0, 0, false
}

// header decodes any record header at the front of b: the key and value
// lengths and the bytes they take. ok is false when b ends inside it.
func header(b []byte) (keyLen, valLen int64, n int, ok bool) {
	keyLen, n, err := binutil.DecodeVLong(b)
	if err != nil {
		return 0, 0, 0, false
	}
	valLen, m, err := binutil.DecodeVLong(b[n:])
	if err != nil {
		return 0, 0, 0, false
	}
	return keyLen, valLen, n + m, true
}

// plausible reports whether a header frames a record: both lengths in
// [0, MaxInt32]. Any other header must be the EOF marker (eofMarker).
func plausible(keyLen, valLen int64) bool {
	return uint64(keyLen)|uint64(valLen) <= math.MaxInt32
}

// eofMarker checks a header that frames no record: nil for the EOF marker
// (-1, -1), and otherwise a bad marker or implausible lengths.
func eofMarker(keyLen, valLen int64) error {
	if keyLen != -1 {
		return fmt.Errorf("ifile: implausible record lengths %d/%d", keyLen, valLen)
	}
	if valLen != -1 {
		return fmt.Errorf("ifile: bad EOF marker (%d)", valLen)
	}
	return nil
}

// trailer checks the checksum after an EOF marker that ends at data[p]:
// it must be there and sum data[:p].
func trailer(data []byte, p int) error {
	if len(data)-p < 4 {
		return io.ErrUnexpectedEOF
	}
	if binary.BigEndian.Uint32(data[p:]) != crc32.ChecksumIEEE(data[:p]) {
		return ErrChecksum
	}
	return nil
}

// Next returns the next record, two sub-slices of the stream. At the EOF
// marker it verifies the checksum and returns io.EOF, as every later call
// does; a stream that ends before its trailer returns io.ErrUnexpectedEOF.
func (r *Reader) Next() (key, value []byte, err error) {
	if r.done {
		return nil, nil, io.EOF
	}
	b, p := r.data, r.pos
	keyLen, valLen, ok := shortHeader(b, p)
	if ok {
		p += 2
	} else {
		var n int
		if keyLen, valLen, n, ok = header(b[p:]); !ok {
			return nil, nil, io.ErrUnexpectedEOF
		}
		p += n
	}
	if !plausible(keyLen, valLen) {
		if err := eofMarker(keyLen, valLen); err != nil {
			return nil, nil, err
		}
		if err := trailer(b, p); err != nil {
			return nil, nil, err
		}
		r.done = true
		return nil, nil, io.EOF
	}
	if keyLen+valLen > int64(len(b)-p) {
		return nil, nil, io.ErrUnexpectedEOF
	}
	v, e := p+int(keyLen), p+int(keyLen+valLen)
	r.pos = e
	return b[p:v:v], b[v:e:e], nil
}

// Verify checks a stream held whole in data — every record header, the EOF
// marker and the checksum — without reading a record: one pass over the
// headers, skipping each body, and one checksum update at the marker. It
// returns what reading data to the end returns (ResetBytes, then Next until
// io.EOF): nil where that read ends in io.EOF, and otherwise the error it
// ends with. Bytes after the checksum are ignored, as Next ignores them.
func Verify(data []byte) error {
	p := 0
	for {
		keyLen, valLen, ok := shortHeader(data, p)
		if ok {
			p += 2
		} else {
			var n int
			if keyLen, valLen, n, ok = header(data[p:]); !ok {
				return io.ErrUnexpectedEOF
			}
			p += n
		}
		if !plausible(keyLen, valLen) {
			if err := eofMarker(keyLen, valLen); err != nil {
				return err
			}
			return trailer(data, p)
		}
		if keyLen+valLen > int64(len(data)-p) {
			return io.ErrUnexpectedEOF
		}
		p += int(keyLen + valLen)
	}
}

// RecordOverhead returns the framing cost of one record with the given key
// and value sizes.
func RecordOverhead(keyLen, valLen int) int {
	return binutil.VLongLen(int64(keyLen)) + binutil.VLongLen(int64(valLen))
}

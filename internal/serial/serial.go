// Package serial provides Hadoop-Writable-style serialization: big-endian
// fixed-width primitives, VInt variable-length integers, and Text
// strings, over simple in-memory DataOutput/DataInput buffers.
//
// The assumption this models (Section II-B(b)): "Keys are serialized
// (converted to byte representation) immediately when output from a
// Mapper". Everything downstream of the map function — spill, sort,
// shuffle, merge — operates on these byte forms, which is why raw-byte
// comparators are part of this package.
package serial

import (
	"encoding/binary"
	"fmt"
	"io"

	"scikey/internal/binutil"
)

// DataOutput is an append-only byte buffer with big-endian primitive
// writers. The zero value is ready to use.
type DataOutput struct {
	buf []byte
}

// NewDataOutput returns a DataOutput with capacity for n bytes.
func NewDataOutput(n int) *DataOutput { return &DataOutput{buf: make([]byte, 0, n)} }

// Bytes returns the accumulated bytes. The slice aliases internal storage
// and is invalidated by further writes.
func (o *DataOutput) Bytes() []byte { return o.buf }

// Len returns the number of bytes written.
func (o *DataOutput) Len() int { return len(o.buf) }

// Reset truncates the buffer for reuse.
func (o *DataOutput) Reset() { o.buf = o.buf[:0] }

// WriteByte appends one byte. The error is always nil; the signature
// matches io.ByteWriter.
func (o *DataOutput) WriteByte(b byte) error {
	o.buf = append(o.buf, b)
	return nil
}

// Write appends p, implementing io.Writer.
func (o *DataOutput) Write(p []byte) (int, error) {
	o.buf = append(o.buf, p...)
	return len(p), nil
}

// WriteU32 appends a big-endian uint32.
func (o *DataOutput) WriteU32(v uint32) { o.buf = binary.BigEndian.AppendUint32(o.buf, v) }

// WriteU64 appends a big-endian uint64.
func (o *DataOutput) WriteU64(v uint64) { o.buf = binary.BigEndian.AppendUint64(o.buf, v) }

// WriteI32 appends a big-endian int32 (Hadoop DataOutput.writeInt).
func (o *DataOutput) WriteI32(v int32) { o.WriteU32(uint32(v)) }

// WriteVInt appends a Hadoop VInt.
func (o *DataOutput) WriteVInt(v int32) { o.buf = binutil.AppendVInt(o.buf, v) }

// WriteText appends a Text: VInt byte length followed by the bytes.
func (o *DataOutput) WriteText(s string) {
	o.WriteVInt(int32(len(s)))
	o.buf = append(o.buf, s...)
}

// DataInput reads the encodings produced by DataOutput from a byte slice.
type DataInput struct {
	buf []byte
	pos int
}

// NewDataInput returns a DataInput over b. The slice is not copied.
func NewDataInput(b []byte) *DataInput { return &DataInput{buf: b} }

// Remaining returns the number of unread bytes.
func (in *DataInput) Remaining() int { return len(in.buf) - in.pos }

func (in *DataInput) need(n int) error {
	if in.Remaining() < n {
		return io.ErrUnexpectedEOF
	}
	return nil
}

// ReadByte reads one byte, implementing io.ByteReader.
func (in *DataInput) ReadByte() (byte, error) {
	if in.pos >= len(in.buf) {
		return 0, io.EOF
	}
	b := in.buf[in.pos]
	in.pos++
	return b, nil
}

// ReadRaw returns the next n bytes without copying. The slice aliases the
// input buffer.
func (in *DataInput) ReadRaw(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("serial: negative length %d", n)
	}
	if err := in.need(n); err != nil {
		return nil, err
	}
	p := in.buf[in.pos : in.pos+n]
	in.pos += n
	return p, nil
}

// ReadU32 reads a big-endian uint32.
func (in *DataInput) ReadU32() (uint32, error) {
	if err := in.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(in.buf[in.pos:])
	in.pos += 4
	return v, nil
}

// ReadU64 reads a big-endian uint64.
func (in *DataInput) ReadU64() (uint64, error) {
	if err := in.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(in.buf[in.pos:])
	in.pos += 8
	return v, nil
}

// ReadI32 reads a big-endian int32.
func (in *DataInput) ReadI32() (int32, error) {
	v, err := in.ReadU32()
	return int32(v), err
}

// ReadVInt reads a Hadoop VInt.
func (in *DataInput) ReadVInt() (int32, error) {
	v, n, err := binutil.DecodeVInt(in.buf[in.pos:])
	if err != nil {
		return 0, err
	}
	in.pos += n
	return v, nil
}

// ReadText reads a Text written by WriteText.
func (in *DataInput) ReadText() (string, error) {
	n, err := in.ReadVInt()
	if err != nil {
		return "", err
	}
	p, err := in.ReadRaw(int(n))
	if err != nil {
		return "", err
	}
	return string(p), nil
}

// CompareBytes is the raw lexicographic comparator used by Hadoop's
// WritableComparator: byte-wise unsigned comparison, shorter prefix first.
func CompareBytes(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

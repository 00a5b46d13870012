// Package binutil implements the low-level binary encoding used throughout
// the intermediate-data pipeline: Hadoop-compatible variable-length integers
// (VInt/VLong).
//
// Hadoop's WritableUtils encodes a long in [-112, 127] as a single byte.
// Larger magnitudes are encoded as a marker byte giving sign and byte count,
// followed by the minimal big-endian payload: markers -113..-120 declare a
// positive value of 1..8 payload bytes; -121..-128 declare a negative value
// stored as its bitwise complement.
package binutil

import (
	"errors"
	"io"
)

// ErrVIntTooLong reports a malformed variable-length integer whose marker
// byte declares more than 8 payload bytes.
var ErrVIntTooLong = errors.New("binutil: malformed vint (too many bytes)")

// MaxVLongLen is the maximum encoded size of a VLong: one marker byte plus
// up to eight payload bytes.
const MaxVLongLen = 9

// AppendVLong appends the Hadoop WritableUtils.writeVLong encoding of v to
// dst and returns the extended slice.
//
// Encoding: values in [-112, 127] are stored as a single byte. Otherwise the
// first byte is a marker: -113..-120 mean a positive value of 1..8 payload
// bytes, -121..-128 mean a negative value (stored as ^v) of 1..8 payload
// bytes. Payload is big-endian and minimal.
func AppendVLong(dst []byte, v int64) []byte {
	if v >= -112 && v <= 127 {
		return append(dst, byte(v))
	}
	marker := int64(-112)
	if v < 0 {
		v = ^v
		marker = -120
	}
	tmp := v
	n := 0
	for tmp != 0 {
		tmp >>= 8
		n++
	}
	dst = append(dst, byte(marker-int64(n)))
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, byte(v>>(8*uint(i))))
	}
	return dst
}

// AppendVInt appends the VInt encoding of v (identical to VLong on the
// widened value, as in Hadoop).
func AppendVInt(dst []byte, v int32) []byte {
	return AppendVLong(dst, int64(v))
}

// VLongLen reports the encoded size in bytes of v without encoding it.
func VLongLen(v int64) int {
	if v >= -112 && v <= 127 {
		return 1
	}
	if v < 0 {
		v = ^v
	}
	n := 0
	for v != 0 {
		v >>= 8
		n++
	}
	return 1 + n
}

// DecodeVLong decodes a VLong from the front of b, returning the value and
// the number of bytes consumed. It returns an error if b is truncated or
// malformed.
func DecodeVLong(b []byte) (int64, int, error) {
	if len(b) == 0 {
		return 0, 0, io.ErrUnexpectedEOF
	}
	first := int8(b[0])
	if first >= -112 {
		return int64(first), 1, nil
	}
	var n int
	neg := false
	if first >= -120 {
		n = int(-113 - first + 1) // -113 => 1 byte ... -120 => 8 bytes
	} else {
		neg = true
		n = int(-121 - first + 1) // -121 => 1 byte ... -128 => 8 bytes
	}
	if n > 8 {
		return 0, 0, ErrVIntTooLong
	}
	if len(b) < 1+n {
		return 0, 0, io.ErrUnexpectedEOF
	}
	var v int64
	for i := 1; i <= n; i++ {
		v = v<<8 | int64(b[i])
	}
	if neg {
		v = ^v
	}
	return v, 1 + n, nil
}

// DecodeVInt decodes a VInt from the front of b.
func DecodeVInt(b []byte) (int32, int, error) {
	v, n, err := DecodeVLong(b)
	if err != nil {
		return 0, n, err
	}
	if v > (1<<31)-1 || v < -(1<<31) {
		return 0, n, errors.New("binutil: vint out of int32 range")
	}
	return int32(v), n, nil
}

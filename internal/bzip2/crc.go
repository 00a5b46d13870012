// Package bzip2 implements a bzip2 compressor. The Go standard library only
// decompresses bzip2; reproducing the paper's Fig. 3 (gzip vs bzip2, with
// and without the predictive transform) requires an encoder, so this
// package provides one: RLE1, Burrows-Wheeler transform via prefix-doubling
// rotation sort, move-to-front, zero-run (RUNA/RUNB) encoding, and
// multi-table canonical Huffman coding, bit-compatible with the reference
// format. Output round-trips through compress/bzip2.
package bzip2

// bzip2 uses the "plain" (non-reflected) CRC-32 with polynomial 0x04c11db7,
// initial value 0xffffffff and a final complement, processing each byte
// MSB-first. This differs from IEEE CRC-32 (hash/crc32), which is
// bit-reflected.

var crcTable [256]uint32

func init() {
	const poly = 0x04c11db7
	for i := 0; i < 256; i++ {
		c := uint32(i) << 24
		for j := 0; j < 8; j++ {
			if c&0x80000000 != 0 {
				c = c<<1 ^ poly
			} else {
				c <<= 1
			}
		}
		crcTable[i] = c
	}
}

// crc32 accumulates bzip2's CRC over p, starting from state c (pass
// 0xffffffff initially; complement the final state).
type blockCRC uint32

func newBlockCRC() blockCRC { return 0xffffffff }

func (c blockCRC) updateByteRun(b byte, n int) blockCRC {
	v := uint32(c)
	for i := 0; i < n; i++ {
		v = v<<8 ^ crcTable[byte(v>>24)^b]
	}
	return blockCRC(v)
}

func (c blockCRC) sum() uint32 { return ^uint32(c) }

// combineStreamCRC folds a finished block's CRC into the running stream
// CRC: rotate left one bit, then XOR.
func combineStreamCRC(stream, block uint32) uint32 {
	return (stream<<1 | stream>>31) ^ block
}

package bzip2

import (
	"bytes"
	stdbzip2 "compress/bzip2"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
)

// roundTrip compresses data and decodes it with the standard library's
// decompressor, the strongest available check of format conformance.
func roundTrip(t *testing.T, data []byte, level int) []byte {
	t.Helper()
	comp, err := Compress(data, level)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	back, err := io.ReadAll(stdbzip2.NewReader(bytes.NewReader(comp)))
	if err != nil {
		t.Fatalf("stdlib decode (input %d bytes, level %d): %v", len(data), level, err)
	}
	if !bytes.Equal(back, data) {
		for i := range data {
			if i >= len(back) || back[i] != data[i] {
				t.Fatalf("mismatch at byte %d of %d (level %d)", i, len(data), level)
			}
		}
		t.Fatalf("decoded %d bytes, want %d", len(back), len(data))
	}
	return comp
}

func TestEmpty(t *testing.T) {
	roundTrip(t, nil, 9)
	roundTrip(t, []byte{}, 1)
}

func TestSmallStrings(t *testing.T) {
	cases := []string{
		"a",
		"ab",
		"banana",
		"abracadabra",
		"hello, hello, hello, world",
		"mississippi",
		"\x00",
		"\x00\x00\x00\x00",
		"to be or not to be that is the question",
	}
	for _, s := range cases {
		for _, lvl := range []int{1, 9} {
			roundTrip(t, []byte(s), lvl)
		}
	}
}

func TestAllByteValues(t *testing.T) {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	roundTrip(t, data, 9)
	// And descending, repeated.
	var desc []byte
	for r := 0; r < 5; r++ {
		for i := 255; i >= 0; i-- {
			desc = append(desc, byte(i))
		}
	}
	roundTrip(t, desc, 9)
}

func TestRunLengths(t *testing.T) {
	// RLE1 boundary cases: runs of length 3, 4, 5, 255, 256, 259, 1000.
	for _, n := range []int{1, 2, 3, 4, 5, 8, 254, 255, 256, 259, 260, 511, 1000} {
		data := bytes.Repeat([]byte{'x'}, n)
		roundTrip(t, data, 9)
		// Runs embedded in other content.
		mixed := append([]byte("head"), data...)
		mixed = append(mixed, []byte("tail")...)
		roundTrip(t, mixed, 9)
	}
}

func TestHighlyRepetitive(t *testing.T) {
	// All-zero megabyte: worst case for naive rotation sorts and the shape
	// of post-transform residual streams.
	data := make([]byte, 1<<20)
	comp := roundTrip(t, data, 9)
	if len(comp) > 200 {
		t.Errorf("1 MiB of zeros compressed to %d bytes; expected tiny output", len(comp))
	}
}

func TestPeriodicData(t *testing.T) {
	// Periodic strings make all rotations compare equal beyond the period;
	// exercises the prefix-doubling termination path.
	data := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7}, 20000)
	roundTrip(t, data, 1)
}

func TestRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 10, 1000, 100000, 300000} {
		data := make([]byte, n)
		rng.Read(data)
		comp := roundTrip(t, data, 1)
		if n >= 1000 && len(comp) < n {
			t.Errorf("random data (%d bytes) 'compressed' to %d — too good to be true", n, len(comp))
		}
	}
}

func TestMultiBlock(t *testing.T) {
	// 350 KB at level 1 forces four blocks, exercising the stream CRC
	// combination.
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 350_000)
	for i := range data {
		data[i] = byte('a' + rng.Intn(4))
	}
	roundTrip(t, data, 1)
}

func TestTextCompressionRatio(t *testing.T) {
	// bzip2 must beat 50% on skewed text-like data.
	rng := rand.New(rand.NewSource(3))
	words := []string{"the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog"}
	var buf bytes.Buffer
	for buf.Len() < 200_000 {
		buf.WriteString(words[rng.Intn(len(words))])
		buf.WriteByte(' ')
	}
	comp := roundTrip(t, buf.Bytes(), 9)
	if ratio := float64(len(comp)) / float64(buf.Len()); ratio > 0.25 {
		t.Errorf("text compressed to %.1f%%, expected < 25%%", ratio*100)
	}
}

func TestGridWalkStream(t *testing.T) {
	// The Fig. 3 input: int32 triples from a grid walk.
	var data []byte
	for x := 0; x < 30; x++ {
		for y := 0; y < 30; y++ {
			for z := 0; z < 30; z++ {
				data = binary.BigEndian.AppendUint32(data, uint32(x))
				data = binary.BigEndian.AppendUint32(data, uint32(y))
				data = binary.BigEndian.AppendUint32(data, uint32(z))
			}
		}
	}
	comp := roundTrip(t, data, 9)
	if ratio := float64(len(comp)) / float64(len(data)); ratio > 0.10 {
		t.Errorf("grid walk compressed to %.1f%%, expected < 10%%", ratio*100)
	}
}

func TestStreamingWrites(t *testing.T) {
	// Byte-at-a-time writes must produce a valid stream identical in
	// content to a single write.
	rng := rand.New(rand.NewSource(4))
	data := make([]byte, 50_000)
	for i := range data {
		data[i] = byte('a' + rng.Intn(3))
	}
	var buf bytes.Buffer
	w := NewWriterLevel(&buf, 1)
	for _, b := range data {
		if _, err := w.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := io.ReadAll(stdbzip2.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("streaming write roundtrip failed")
	}
}

func TestWriteAfterClose(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("Write after Close must fail")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestInvalidLevel(t *testing.T) {
	for _, lvl := range []int{0, 10, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("level %d must panic", lvl)
				}
			}()
			NewWriterLevel(io.Discard, lvl)
		}()
	}
}

func TestBWTKnown(t *testing.T) {
	// Classic example: rotations of "banana" sorted give last column
	// "nnbaaa" with the original at row 3.
	last, ptr := bwTransform([]byte("banana"))
	if string(last) != "nnbaaa" {
		t.Errorf("bwt(banana) = %q, want nnbaaa", last)
	}
	if ptr != 3 {
		t.Errorf("origPtr = %d, want 3", ptr)
	}
}

func TestBWTTinyInputs(t *testing.T) {
	if last, ptr := bwTransform(nil); last != nil || ptr != 0 {
		t.Error("bwt(nil) wrong")
	}
	if last, ptr := bwTransform([]byte{42}); len(last) != 1 || last[0] != 42 || ptr != 0 {
		t.Error("bwt(single) wrong")
	}
}

func TestBWTAllRotationsSorted(t *testing.T) {
	// Property: reconstruct the sorted rotations from the BWT and verify
	// order, on random small inputs (including repetitive ones).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		data := make([]byte, n)
		for i := range data {
			data[i] = byte('a' + rng.Intn(3))
		}
		last, ptr := bwTransform(data)
		// Build all rotations, sort them stably, compare last column.
		rots := make([][]byte, n)
		for i := 0; i < n; i++ {
			rots[i] = append(append([]byte{}, data[i:]...), data[:i]...)
		}
		sortRots(rots)
		for i := range rots {
			if rots[i][n-1] != last[i] {
				t.Fatalf("trial %d: last[%d] = %q, want %q (data %q)", trial, i, last[i], rots[i][n-1], data)
			}
		}
		if !bytes.Equal(rots[ptr], data) {
			t.Fatalf("trial %d: origPtr %d does not index the original rotation", trial, ptr)
		}
	}
}

func sortRots(rots [][]byte) {
	for i := 1; i < len(rots); i++ {
		for j := i; j > 0 && bytes.Compare(rots[j], rots[j-1]) < 0; j-- {
			rots[j], rots[j-1] = rots[j-1], rots[j]
		}
	}
}

func TestCanonicalCodesPrefixFree(t *testing.T) {
	freq := []int{100, 50, 20, 20, 5, 1, 1, 1}
	lengths := buildLengths(freq, maxCodeLen)
	codes := canonicalCodes(lengths)
	for i := range codes {
		for j := range codes {
			if i == j {
				continue
			}
			li, lj := uint(lengths[i]), uint(lengths[j])
			if li <= lj && codes[i] == codes[j]>>(lj-li) {
				t.Fatalf("code %d (len %d) is a prefix of code %d (len %d)", i, li, j, lj)
			}
		}
	}
}

func TestBuildLengthsCap(t *testing.T) {
	// Exponential frequencies force long codes; the cap must hold.
	freq := make([]int, 40)
	f := 1
	for i := range freq {
		freq[i] = f
		if f < 1<<40 {
			f *= 2
		}
	}
	lengths := buildLengths(freq, maxCodeLen)
	// Kraft inequality must hold with equality (complete code).
	var kraft float64
	for _, l := range lengths {
		if l == 0 || l > maxCodeLen {
			t.Fatalf("length %d out of range", l)
		}
		kraft += 1 / float64(uint64(1)<<l)
	}
	if kraft > 1.0000001 {
		t.Errorf("Kraft sum %f > 1: not a valid code", kraft)
	}
}

func TestCRC(t *testing.T) {
	// bzip2's CRC of "123456789" with poly 0x04c11db7 (unreflected) is the
	// CRC-32/BZIP2 check value 0xfc891918.
	c := newBlockCRC()
	for _, b := range []byte("123456789") {
		c = c.updateByteRun(b, 1)
	}
	if c.sum() != 0xfc891918 {
		t.Errorf("crc = %#x, want 0xfc891918", c.sum())
	}
	// A run of n equals n runs of one.
	a := newBlockCRC()
	for i := 0; i < 4; i++ {
		a = a.updateByteRun('a', 1)
	}
	b := newBlockCRC().updateByteRun('a', 4)
	if a.sum() != b.sum() {
		t.Error("updateByteRun(b, 4) disagrees with four single-byte updates")
	}
}

func BenchmarkCompressGridWalk(b *testing.B) {
	var data []byte
	for x := 0; x < 40; x++ {
		for y := 0; y < 40; y++ {
			for z := 0; z < 40; z++ {
				data = binary.BigEndian.AppendUint32(data, uint32(x))
				data = binary.BigEndian.AppendUint32(data, uint32(y))
				data = binary.BigEndian.AppendUint32(data, uint32(z))
			}
		}
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(data, 9); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriterReset: a reset writer must emit a byte-identical fresh stream,
// even after a dirty (unclosed) previous stream — the contract the codec
// pools rely on.
func TestWriterReset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 300000)
	rng.Read(data)
	want, err := Compress(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriterLevel(io.Discard, 6)
	if _, err := w.Write([]byte("abandoned stream, never closed")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		w.Reset(&buf)
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("round %d: reset stream differs from fresh stream", i)
		}
	}
}

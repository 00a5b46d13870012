package ifile

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"

	"scikey/internal/binutil"
)

// The Writer gathers a block before it checksums and writes. These tests
// hold it, and the Reader reading what it wrote in place, to the format at
// the places that batching could get wrong: a field that straddles a block
// edge, a piece larger than a block, the empty stream, damage and
// truncation anywhere, and a destination that fails.

type rec struct{ k, v []byte }

// referenceStream frames recs the way the Writer did before it gathered
// blocks: every header, key and value goes to the checksum and to the
// output by itself.
func referenceStream(recs []rec) []byte {
	var out []byte
	var crc uint32
	emit := func(p []byte) {
		crc = crc32.Update(crc, crc32.IEEETable, p)
		out = append(out, p...)
	}
	for _, r := range recs {
		hdr := binutil.AppendVLong(nil, int64(len(r.k)))
		hdr = binutil.AppendVLong(hdr, int64(len(r.v)))
		emit(hdr)
		emit(r.k)
		emit(r.v)
	}
	emit([]byte{0xff, 0xff})
	return binary.BigEndian.AppendUint32(out, crc)
}

func writeStream(t *testing.T, recs []rec) ([]byte, Stats) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Append(r.k, r.v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), w.Stats()
}

// readInPlace reads data in place and returns its records, or the first
// non-EOF error.
func readInPlace(data []byte) ([]rec, error) {
	r := NewReader(data)
	var recs []rec
	for {
		k, v, err := r.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec{bytes.Clone(k), bytes.Clone(v)})
	}
}

func fill(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i)*7
	}
	return p
}

// checkStream writes recs, compares the bytes with the reference framing,
// and reads them back in place.
func checkStream(t *testing.T, recs []rec) []byte {
	t.Helper()
	got, stats := writeStream(t, recs)
	if want := referenceStream(recs); !bytes.Equal(got, want) {
		t.Fatalf("stream differs from the per-record reference (%d vs %d bytes)", len(got), len(want))
	}
	if stats.Total() != int64(len(got)) || stats.Records != int64(len(recs)) {
		t.Fatalf("stats %+v do not describe a %d-byte, %d-record stream", stats, len(got), len(recs))
	}
	back, err := readInPlace(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("read %d records, wrote %d", len(back), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(back[i].k, recs[i].k) || !bytes.Equal(back[i].v, recs[i].v) {
			t.Fatalf("record %d differs", i)
		}
	}
	// What a Reader gets back decomposes into the bytes the Writer counted.
	s := Stats{TrailerBytes: TrailerLen}
	for _, r := range back {
		s.Records++
		s.KeyBytes += int64(len(r.k))
		s.ValBytes += int64(len(r.v))
		s.FrameBytes += int64(RecordOverhead(len(r.k), len(r.v)))
	}
	if s != stats {
		t.Fatalf("a Reader sees %+v; writer stats %+v", s, stats)
	}
	return got
}

func TestFieldsStraddleBlockEdge(t *testing.T) {
	// A first record of pad bytes (2-byte header for a short key, 3-byte
	// for a value of 128..32767) puts the second record's header, key or
	// value across the 4096-byte edge; the second record has a 3-byte header
	// (1 + 2), a 40-byte key and a 300-byte value.
	second := rec{fill(40, 3), fill(300, 9)}
	for _, edge := range []struct {
		name string
		off  int // stream offset of the second record's first byte
	}{
		{"header", blockSize - 1},
		{"header-last-byte", blockSize - 2},
		{"key-first-byte", blockSize - 3},
		{"key", blockSize - 3 - 20},
		{"key-value-seam", blockSize - 3 - 40},
		{"value", blockSize - 3 - 40 - 150},
		{"value-last-byte", blockSize - 3 - 40 - 299},
		{"exact", blockSize - 3 - 40 - 300},
	} {
		t.Run(edge.name, func(t *testing.T) {
			first := rec{fill(10, 1), fill(edge.off-10-3, 5)}
			checkStream(t, []rec{first, second, {fill(5, 2), fill(5, 4)}})
		})
	}
}

func TestPiecesOfABlockOrMore(t *testing.T) {
	for _, n := range []int{blockSize - 1, blockSize, blockSize + 1, 2 * blockSize, 2*blockSize + 17, 5 * blockSize} {
		// As a value and as a key, arriving on an empty block and on a
		// partly filled one.
		checkStream(t, []rec{{fill(3, 1), fill(n, 2)}})
		checkStream(t, []rec{{fill(n, 1), fill(3, 2)}})
		checkStream(t, []rec{{fill(9, 1), fill(9, 2)}, {fill(n, 3), fill(n, 4)}, {fill(9, 5), fill(9, 6)}})
	}
}

func TestEmptyStream(t *testing.T) {
	got := checkStream(t, nil)
	if want := []byte{0xff, 0xff, 0xff, 0xff, 0x00, 0x00}; !bytes.Equal(got, want) {
		t.Fatalf("empty stream = %x, want %x", got, want)
	}
}

func TestRandomShapesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sizes := []int{0, 1, 4, 20, 27, 127, 128, 300, blockSize - 2, blockSize, blockSize + 3, 3 * blockSize}
	for shape := range 1000 {
		recs := make([]rec, rng.Intn(40))
		for i := range recs {
			recs[i] = rec{make([]byte, sizes[rng.Intn(len(sizes))]), make([]byte, sizes[rng.Intn(len(sizes))])}
			if rng.Intn(4) > 0 { // most records are shuffle-sized
				recs[i] = rec{make([]byte, rng.Intn(32)), make([]byte, rng.Intn(16))}
			}
			rng.Read(recs[i].k)
			rng.Read(recs[i].v)
		}
		got, _ := writeStream(t, recs)
		if !bytes.Equal(got, referenceStream(recs)) {
			t.Fatalf("shape %d: stream differs from the per-record reference", shape)
		}
		back, err := readInPlace(got)
		if err != nil || len(back) != len(recs) {
			t.Fatalf("shape %d: read %d of %d records: %v", shape, len(back), len(recs), err)
		}
	}
}

// threeBlocks is the fixed stream of the pinned-hash, bit-flip and
// truncation tests: 400 shuffle-shaped records, a value over one block in
// the middle, a little over three blocks in all.
func threeBlocks() []rec {
	recs := make([]rec, 0, 401)
	for i := range 400 {
		k := binary.BigEndian.AppendUint32([]byte("\x0awindspeed1"), uint32(i*2654435761))
		recs = append(recs, rec{k, fill(4, byte(i))})
		if i == 200 {
			recs = append(recs, rec{fill(6, 7), fill(blockSize+100, 11)})
		}
	}
	return recs
}

// TestPinnedStreamHash pins the stream bytes to what the per-record Writer
// of the parent commit produced for the same records.
func TestPinnedStreamHash(t *testing.T) {
	got := checkStream(t, threeBlocks())
	sum := sha256.Sum256(got)
	const want = "af6b3672c46624b66a4c0d1bc03604124efc1971dc6b62c671f86b72f9ab73ea"
	if hex.EncodeToString(sum[:]) != want || len(got) != 12612 {
		t.Fatalf("stream is %d bytes, sha256 %x; want 12612 bytes, %s", len(got), sum, want)
	}
}

// TestBitFlipsAcrossBlocks: a flipped bit in a header byte, a key, a value
// (short, and the one spanning blocks), the EOF marker or the trailer ends
// in ErrChecksum or a framing error — never a clean EOF.
func TestBitFlipsAcrossBlocks(t *testing.T) {
	clean, _ := writeStream(t, threeBlocks())
	rec0 := 2 + 15 + 4 // header, key, value of every short record
	big := 201 * rec0  // offset of the large record's 4-byte header
	for _, at := range []struct {
		name string
		off  int
		// payload damage leaves the framing intact, so only the checksum
		// can notice it.
		payload bool
	}{
		{"header-keylen", 0, false},
		{"header-vallen", 1, false},
		{"key", 5, true},
		{"value", 2 + 15 + 1, true},
		{"header-in-block-2", blockSize + rec0 - blockSize%rec0, false},
		{"big-header", big + 2, false},
		{"big-value-block-2", big + 4 + 6 + 10, true},
		{"big-value-block-3", big + 4 + 6 + blockSize, true},
		{"last-record-value", len(clean) - TrailerLen - 1, true},
		{"eof-marker-0", len(clean) - 6, false},
		{"eof-marker-1", len(clean) - 5, false},
		{"trailer-0", len(clean) - 4, true},
		{"trailer-3", len(clean) - 1, true},
	} {
		for bit := range 8 {
			bad := bytes.Clone(clean)
			bad[at.off] ^= 1 << bit
			_, err := readInPlace(bad)
			if err == nil {
				t.Fatalf("%s bit %d: damaged stream read to a clean EOF", at.name, bit)
			}
			if at.payload && err != ErrChecksum {
				t.Fatalf("%s bit %d: %v, want ErrChecksum", at.name, bit, err)
			}
		}
	}
}

func TestTruncationAtEveryOffset(t *testing.T) {
	clean, _ := writeStream(t, threeBlocks())
	if len(clean) < 3*blockSize {
		t.Fatalf("stream is %d bytes, want at least three blocks", len(clean))
	}
	for cut := range len(clean) {
		if _, err := readInPlace(clean[:cut]); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestInPlaceReadAllocatesNothing: a stream held in memory is read where
// it lies — every record a capacity-capped sub-slice of the stream — and
// reading all of it, checksum included, allocates nothing.
func TestInPlaceReadAllocatesNothing(t *testing.T) {
	data, stats := writeStream(t, threeBlocks())
	var r Reader
	var records int64
	allocs := testing.AllocsPerRun(20, func() {
		r.ResetBytes(data)
		records = 0
		for off := 0; ; records++ {
			k, v, err := r.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			off += RecordOverhead(len(k), len(v))
			if cap(k) != len(k) || cap(v) != len(v) || &k[0] != &data[off] || &v[0] != &data[off+len(k)] {
				t.Fatalf("record %d is not two capped sub-slices of the stream", records)
			}
			off += len(k) + len(v)
		}
	})
	if allocs != 0 || records != stats.Records {
		t.Fatalf("%.1f allocations reading %d of %d records in place, want 0", allocs, records, stats.Records)
	}
}

// failAfter accepts limit bytes, then fails every Write.
type failAfter struct {
	limit int
	err   error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.limit < len(p) {
		return 0, f.err
	}
	f.limit -= len(p)
	return len(p), nil
}

// TestFailingDestinationReported: the block is written late, so the error
// may miss the Append that caused it — but Close reports it at the latest,
// and once seen every later call repeats it.
func TestFailingDestinationReported(t *testing.T) {
	boom := errors.New("disk full")
	for _, tc := range []struct {
		name    string
		limit   int
		records int
		val     int
	}{
		{"nothing-fits-one-record", 0, 1, 4},
		{"nothing-fits-empty-output", 0, 0, 0},
		{"second-block-fails", blockSize, 400, 20},
		{"trailer-fails", 2 + 15 + 4 + 2, 1, 4},
		{"large-value-fails", 100, 3, 2 * blockSize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWriter(&failAfter{limit: tc.limit, err: boom})
			var appendErr error
			for range tc.records {
				if appendErr = w.Append(fill(15, 1), fill(tc.val, 2)); appendErr != nil {
					break
				}
			}
			if appendErr != nil {
				if !errors.Is(appendErr, boom) {
					t.Fatalf("Append: %v", appendErr)
				}
				if err := w.Append(fill(1, 1), nil); !errors.Is(err, boom) {
					t.Fatalf("Append after a failed write: %v, want the write's error", err)
				}
			}
			if err := w.Close(); !errors.Is(err, boom) {
				t.Fatalf("Close: %v, want the destination's error", err)
			}
			if w.Stats().TrailerBytes != 0 {
				t.Error("a stream that failed to close reports a trailer")
			}
		})
	}
}

// TestWriterSumsByTheBlock counts destination writes: one per block and one
// for the trailer, not three per record.
func TestWriterSumsByTheBlock(t *testing.T) {
	var writes, bytesOut int
	w := NewWriter(writerFunc(func(p []byte) (int, error) {
		writes++
		bytesOut += len(p)
		return len(p), nil
	}))
	for i := range 10_000 {
		if err := w.Append(fill(27, byte(i)), fill(4, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if want := bytesOut/blockSize + 2; writes > want {
		t.Errorf("%d destination writes for %d bytes, want at most %d", writes, bytesOut, want)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

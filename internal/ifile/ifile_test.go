package ifile

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"scikey/internal/grid"
	"scikey/internal/keys"
	"scikey/internal/serial"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	records := [][2][]byte{
		{[]byte("key1"), []byte("value1")},
		{[]byte{}, []byte("empty key")},
		{[]byte("empty value"), []byte{}},
		{bytes.Repeat([]byte{0xaa}, 300), bytes.Repeat([]byte{0xbb}, 5000)},
	}
	for _, rec := range records {
		if err := w.Append(rec[0], rec[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(buf.Bytes())
	for i, rec := range records {
		k, v, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(k, rec[0]) || !bytes.Equal(v, rec[1]) {
			t.Errorf("record %d mismatch", i)
		}
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatal("Next after EOF must keep returning io.EOF")
	}
}

func TestStatsDecomposition(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append(make([]byte, 20), make([]byte, 4))
	w.Append(make([]byte, 200), make([]byte, 4)) // 200 needs a 2-byte VInt
	w.Close()
	s := w.Stats()
	if s.Records != 2 || s.KeyBytes != 220 || s.ValBytes != 8 {
		t.Errorf("stats = %+v", s)
	}
	if s.FrameBytes != 2+3 {
		t.Errorf("FrameBytes = %d, want 5", s.FrameBytes)
	}
	if s.TrailerBytes != TrailerLen {
		t.Errorf("TrailerBytes = %d", s.TrailerBytes)
	}
	if s.Total() != int64(buf.Len()) {
		t.Errorf("Total() = %d, file is %d", s.Total(), buf.Len())
	}
}

// TestIntroFileSizes reproduces the introduction's numbers exactly: one
// million float cells keyed by (variable, 4-D coordinate) produce a
// 26,000,006-byte intermediate file with a 4-byte variable index and a
// 33,000,006-byte file with the Text name "windspeed1".
func TestIntroFileSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("writes 26 MB")
	}
	shape := grid.NewBox(grid.Coord{0, 0, 0, 0}, []int{1, 100, 100, 100})
	run := func(mode keys.VarMode) int64 {
		codec := &keys.Codec{Rank: 4, Mode: mode}
		var n int64
		counter := &countWriter{n: &n}
		w := NewWriter(counter)
		out := serial.NewDataOutput(32)
		val := []byte{0, 0, 0, 0}
		grid.ForEach(shape, func(c grid.Coord) {
			out.Reset()
			codec.EncodeGrid(out, keys.GridKey{Var: keys.VarRef{Name: "windspeed1", Index: 3}, Coord: c})
			if err := w.Append(out.Bytes(), val); err != nil {
				t.Fatal(err)
			}
		})
		w.Close()
		return n
	}
	if got := run(keys.VarByIndex); got != 26_000_006 {
		t.Errorf("index-mode file = %d bytes, want 26000006", got)
	}
	if got := run(keys.VarByName); got != 33_000_006 {
		t.Errorf("name-mode file = %d bytes, want 33000006", got)
	}
}

type countWriter struct{ n *int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	*c.n += int64(len(p))
	return len(p), nil
}

func TestChecksumDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append([]byte("k"), []byte("v"))
	w.Close()
	data := buf.Bytes()
	data[2] ^= 0x01 // flip a key byte
	r := NewReader(data)
	if _, _, err := r.Next(); err != nil {
		t.Fatalf("record read should still succeed: %v", err)
	}
	if _, _, err := r.Next(); err != ErrChecksum {
		t.Fatalf("expected ErrChecksum, got %v", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append([]byte("key"), []byte("value"))
	w.Close()
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		var err error
		for err == nil {
			_, _, err = r.Next()
		}
		if err == io.EOF {
			t.Fatalf("truncation at %d went unnoticed", cut)
		}
	}
}

func TestAppendAfterClose(t *testing.T) {
	w := NewWriter(io.Discard)
	w.Close()
	if err := w.Append([]byte("k"), []byte("v")); err == nil {
		t.Error("Append after Close must fail")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestRecordOverhead(t *testing.T) {
	if got := RecordOverhead(20, 4); got != 2 {
		t.Errorf("RecordOverhead(20,4) = %d, want 2", got)
	}
	if got := RecordOverhead(200, 4); got != 3 {
		t.Errorf("RecordOverhead(200,4) = %d, want 3", got)
	}
}

func TestLargeRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	type rec struct{ k, v []byte }
	var recs []rec
	for i := 0; i < 2000; i++ {
		k := make([]byte, rng.Intn(64))
		v := make([]byte, rng.Intn(256))
		rng.Read(k)
		rng.Read(v)
		recs = append(recs, rec{k, v})
		if err := w.Append(k, v); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	r := NewReader(buf.Bytes())
	for i, want := range recs {
		k, v, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(k, want.k) || !bytes.Equal(v, want.v) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("tail: %v", err)
	}
}

// TestAnySingleBitFlipDetected sweeps every bit of a multi-record stream:
// whatever a flip breaks — VInt framing, the EOF marker, or the CRC trailer —
// the reader must report an error rather than hand back silently wrong data,
// and the verdict must be deterministic for a given flip.
func TestAnySingleBitFlipDetected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append([]byte("alpha"), []byte("one"))
	w.Append([]byte("beta"), []byte("two"))
	w.Append([]byte("gamma"), []byte("three"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()

	readAll := func(data []byte) ([]string, error) {
		r := NewReader(data)
		var recs []string
		for {
			k, v, err := r.Next()
			if err == io.EOF {
				return recs, nil
			}
			if err != nil {
				return recs, err
			}
			recs = append(recs, string(k)+"="+string(v))
		}
	}
	want, err := readAll(clean)
	if err != nil || len(want) != 3 {
		t.Fatalf("clean stream: %v %v", want, err)
	}

	for pos := 0; pos < len(clean); pos++ {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), clean...)
			bad[pos] ^= 1 << bit
			got1, err1 := readAll(bad)
			if err1 == nil {
				t.Fatalf("flip at byte %d bit %d went undetected (read %v)", pos, bit, got1)
			}
			_, err2 := readAll(bad)
			if (err1 == nil) != (err2 == nil) || err1.Error() != err2.Error() {
				t.Fatalf("flip at byte %d bit %d: nondeterministic verdict %v vs %v", pos, bit, err1, err2)
			}
		}
	}
}

// TestVerifyMatchesReading: Verify ends every stream the way reading it in
// place to the end does, on a clean stream with one- and multi-byte record
// lengths (keys and values of 128 bytes or more), the stream cut at every
// offset, a bad EOF marker, an implausible length, every single bit flip,
// and bytes after the trailer.
func TestVerifyMatchesReading(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append([]byte("k"), []byte("v"))
	w.Append(bytes.Repeat([]byte{'k'}, 128), []byte("short value"))
	w.Append([]byte("short key"), bytes.Repeat([]byte{'v'}, 1_000))
	w.Append(nil, nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	if err := checkVerify(t, clean); err != nil {
		t.Fatalf("clean stream: %v", err)
	}
	for cut := range len(clean) {
		if err := checkVerify(t, clean[:cut]); err == nil {
			t.Fatalf("a stream cut at %d of %d bytes verifies", cut, len(clean))
		}
	}

	marker := len(clean) - TrailerLen
	badMarker := bytes.Clone(clean)
	badMarker[marker+1] = 5
	if err := checkVerify(t, badMarker); err == nil || err.Error() != "ifile: bad EOF marker (5)" {
		t.Errorf("bad EOF marker: %v", err)
	}
	implausible := bytes.Clone(clean)
	implausible[0] = 0xfe // VLong -2
	if err := checkVerify(t, implausible); err == nil || err.Error() != "ifile: implausible record lengths -2/1" {
		t.Errorf("negative key length: %v", err)
	}
	for _, pos := range []int{len(clean) - 1, len(clean) - 4, 2, marker - 3} {
		flipped := bytes.Clone(clean)
		flipped[pos] ^= 0x10
		if err := checkVerify(t, flipped); !errors.Is(err, ErrChecksum) {
			t.Errorf("byte %d flipped: %v, want ErrChecksum", pos, err)
		}
	}
	for pos := range clean {
		for bit := range 8 {
			flipped := bytes.Clone(clean)
			flipped[pos] ^= 1 << bit
			checkVerify(t, flipped)
		}
	}
	if err := checkVerify(t, append(bytes.Clone(clean), "after the trailer"...)); err != nil {
		t.Errorf("bytes after the trailer: %v", err)
	}
}

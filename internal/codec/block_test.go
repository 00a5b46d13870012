package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// refBlockEncode is the block framing in its plainest form: every
// blockBytes of input compressed as one complete inner stream behind its
// two lengths, then the end marker. The pipeline must match it byte for
// byte at every GOMAXPROCS.
func refBlockEncode(inner Codec, blockBytes int, data []byte) ([]byte, error) {
	var out []byte
	for len(data) > 0 {
		n := min(blockBytes, len(data))
		comp, err := Compress(inner, data[:n])
		if err != nil {
			return nil, err
		}
		out = binary.BigEndian.AppendUint32(out, uint32(n))
		out = binary.BigEndian.AppendUint32(out, uint32(len(comp)))
		out = append(out, comp...)
		data = data[n:]
	}
	return append(out, make([]byte, 8)...), nil
}

// refBlockDecode reads frames one at a time and inflates each in turn,
// returning what it decoded before the first error.
func refBlockDecode(inner Codec, src io.Reader) ([]byte, error) {
	var out []byte
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return out, err
		}
		rawLen, compLen := binary.BigEndian.Uint32(hdr[0:4]), binary.BigEndian.Uint32(hdr[4:8])
		if rawLen == 0 && compLen == 0 {
			return out, nil
		}
		if rawLen > maxBlockLen || compLen > maxBlockLen {
			return out, fmt.Errorf("frame lengths %d/%d out of range", rawLen, compLen)
		}
		comp := make([]byte, compLen)
		if _, err := io.ReadFull(src, comp); err != nil {
			return out, err
		}
		block, err := Decompress(inner, comp)
		if err != nil {
			return out, err
		}
		if len(block) != int(rawLen) {
			return out, fmt.Errorf("block holds %d bytes, frame declares %d", len(block), rawLen)
		}
		out = append(out, block...)
	}
}

// setProcs sets GOMAXPROCS — the pipeline's width, read once per stream —
// for the rest of the test.
func setProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// widths are the GOMAXPROCS values the block tests sweep.
var widths = []int{1, 2, 4, 8}

// blockInners are the inner stacks the pipeline is used with in anger.
func blockInners() map[string]func() Codec {
	return map[string]func() Codec{
		"none":            func() Codec { return None },
		"zlib":            func() Codec { return Zlib },
		"transform+zlib":  func() Codec { return NewTransform(Zlib) },
		"transform+bzip2": func() Codec { return NewTransform(Bzip2) },
	}
}

func blockTestInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 40000)
	rng.Read(random)
	return map[string][]byte{
		"empty":    nil,
		"tiny":     []byte("x"),
		"oneblock": gridWalkStream(9),
		"exact":    make([]byte, 4096), // multiple of the 1 KiB/4 KiB sizes below
		"gridwalk": gridWalkStream(20),
		"random":   random,
	}
}

// TestBlockByteIdenticalAcrossWorkers is the core determinism contract:
// framing is position-determined, so every width emits refBlockEncode's
// bytes, and every width decodes them.
func TestBlockByteIdenticalAcrossWorkers(t *testing.T) {
	for innerName, mk := range blockInners() {
		for _, bb := range []int{1 << 10, 4096, DefaultBlockBytes} {
			for label, data := range blockTestInputs() {
				want, err := refBlockEncode(mk(), bb, data)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range widths {
					setProcs(t, w)
					b := &Block{Inner: mk(), BlockBytes: bb}
					comp, err := Compress(b, data)
					if err != nil {
						t.Fatalf("%s/bb=%d/%s/w=%d: %v", innerName, bb, label, w, err)
					}
					if !bytes.Equal(want, comp) {
						t.Fatalf("%s/bb=%d/%s: width %d bytes differ from refBlockEncode", innerName, bb, label, w)
					}
					back, err := Decompress(b, want)
					if err != nil {
						t.Fatalf("%s/bb=%d/%s/w=%d decode: %v", innerName, bb, label, w, err)
					}
					if !bytes.Equal(back, data) {
						t.Fatalf("%s/bb=%d/%s/w=%d roundtrip mismatch", innerName, bb, label, w)
					}
				}
			}
		}
	}
}

// TestBlockChunkedWriteInvariance: block boundaries depend on stream
// position only, never on how the caller chunks Write calls.
func TestBlockChunkedWriteInvariance(t *testing.T) {
	setProcs(t, 3)
	data := gridWalkStream(16)
	b := &Block{Inner: NewTransform(Zlib), BlockBytes: 3000}
	oneShot, err := Compress(b, data)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := b.NewWriter(&buf)
	for i := 0; i < len(data); {
		n := 577
		if i+n > len(data) {
			n = len(data) - i
		}
		if _, err := w.Write(data[i : i+n]); err != nil {
			t.Fatal(err)
		}
		i += n
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oneShot, buf.Bytes()) {
		t.Fatal("chunked writes changed the encoded bytes")
	}
}

// TestBlockPooledReuse: block streams recycle through the generic codec
// pools (Reset(io.Writer) / Reset(io.Reader) error) byte-identically.
func TestBlockPooledReuse(t *testing.T) {
	setProcs(t, 4)
	b := &Block{Inner: NewTransform(Zlib), BlockBytes: 2048}
	wp, rp := NewWriterPool(b), NewReaderPool(b)
	data := gridWalkStream(14)
	var want []byte
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		w := wp.Get(&buf)
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		wp.Put(w)
		if want == nil {
			want = append([]byte(nil), buf.Bytes()...)
		} else if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("pooled writer round %d produced different bytes", i)
		}
		r, err := rp.Get(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		back, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		rp.Put(r)
		if !bytes.Equal(back, data) {
			t.Fatalf("pooled reader round %d mismatch", i)
		}
	}
}

// errAfterReader fails with errBoom once limit bytes have been served —
// the same shape as the faults package's codec-site injection.
var errBoom = errors.New("boom")

type errAfterReader struct {
	r     io.Reader
	limit int
}

func (e *errAfterReader) Read(p []byte) (int, error) {
	if e.limit <= 0 {
		return 0, errBoom
	}
	if len(p) > e.limit {
		p = p[:e.limit]
	}
	n, err := e.r.Read(p)
	e.limit -= n
	if err == io.EOF {
		err = errBoom
	}
	return n, err
}

// TestBlockErrorParityAcrossWorkers: an injected source fault surfaces
// after refBlockDecode's delivered prefix, with the same error text at
// every width — blocks decode ahead, but they are served strictly in frame
// order and frames are read in order on the caller's goroutine.
func TestBlockErrorParityAcrossWorkers(t *testing.T) {
	data := gridWalkStream(18)
	inner := NewTransform(Zlib)
	comp, err := refBlockEncode(inner, 2000, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 5, len(comp) / 3, len(comp) / 2, len(comp) - 4} {
		want, werr := refBlockDecode(inner, &errAfterReader{r: bytes.NewReader(comp), limit: limit})
		if !errors.Is(werr, errBoom) {
			t.Fatalf("limit=%d: reference error %v, want the injected fault", limit, werr)
		}
		var firstErr string
		for _, w := range widths {
			setProcs(t, w)
			b := &Block{Inner: NewTransform(Zlib), BlockBytes: 2000}
			r, err := b.NewReader(&errAfterReader{r: bytes.NewReader(comp), limit: limit})
			if err != nil {
				t.Fatal(err)
			}
			prefix, rerr := io.ReadAll(r)
			r.Close()
			if !errors.Is(rerr, errBoom) {
				t.Fatalf("limit=%d w=%d: error %v, want the injected fault", limit, w, rerr)
			}
			if !bytes.Equal(want, prefix) {
				t.Fatalf("limit=%d w=%d: delivered prefix %d bytes, reference delivered %d",
					limit, w, len(prefix), len(want))
			}
			if firstErr == "" {
				firstErr = rerr.Error()
			} else if rerr.Error() != firstErr {
				t.Fatalf("limit=%d w=%d: error %q, width 1 got %q", limit, w, rerr, firstErr)
			}
		}
	}
}

// TestBlockCorruptStream: truncation, header garbage, payload corruption,
// and over-long inner streams all error out instead of returning bad bytes,
// at every width and in the reference.
func TestBlockCorruptStream(t *testing.T) {
	data := gridWalkStream(12)
	comp, err := refBlockEncode(Zlib, 1500, data)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"truncated-mid-frame":  comp[:len(comp)/2],
		"missing-end-marker":   comp[:len(comp)-8],
		"empty":                {},
		"garbage-header":       append([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, comp...),
		"zero-comp-len":        {0, 0, 0, 5, 0, 0, 0, 0},
		"huge-raw-len":         {0xff, 0, 0, 0, 0, 0, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8},
		"short-declared-003":   flipDeclaredRawLen(comp, -3),
		"corrupt-payload-byte": flipPayloadByte(comp),
	}
	for name, stream := range cases {
		if _, err := refBlockDecode(Zlib, bytes.NewReader(stream)); err == nil {
			t.Errorf("%s: reference decoded a corrupt stream without error", name)
		}
		for _, w := range []int{1, 4} {
			setProcs(t, w)
			b := &Block{Inner: Zlib, BlockBytes: 1500}
			if _, err := Decompress(b, stream); err == nil {
				t.Errorf("%s w=%d: corrupt stream decoded without error", name, w)
			}
		}
	}
}

// flipDeclaredRawLen rewrites the first frame's rawLen by delta, making the
// inner stream longer than declared.
func flipDeclaredRawLen(comp []byte, delta int) []byte {
	out := append([]byte(nil), comp...)
	raw := int(out[0])<<24 | int(out[1])<<16 | int(out[2])<<8 | int(out[3])
	raw += delta
	out[0], out[1], out[2], out[3] = byte(raw>>24), byte(raw>>16), byte(raw>>8), byte(raw)
	return out
}

func flipPayloadByte(comp []byte) []byte {
	out := append([]byte(nil), comp...)
	out[8+len(out)/3] ^= 0x40
	return out
}

// TestBlockAbandonedReader: closing mid-stream (the merge abandon path)
// must wait out the blocks in flight without deadlocking.
func TestBlockAbandonedReader(t *testing.T) {
	setProcs(t, 4)
	data := gridWalkStream(24)
	b := &Block{Inner: NewTransform(Zlib), BlockBytes: 1 << 10}
	comp, err := Compress(b, data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r, err := b.NewReader(bytes.NewReader(comp))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 100)
		if _, err := io.ReadFull(r, buf); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBlockAbandonedStreamsLeaveNoGoroutines: a stream dropped mid-way
// without Close — a writer the engine discards on a fill error, a reader a
// pool lets go of — leaves no goroutine behind once its blocks finish.
func TestBlockAbandonedStreamsLeaveNoGoroutines(t *testing.T) {
	setProcs(t, 2)
	const bb = 4 << 10
	data := gridWalkStream(24) // ~40 blocks
	b := &Block{Inner: NewTransform(Zlib), BlockBytes: bb}
	comp, err := Compress(b, data)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		r, err := b.NewReader(bytes.NewReader(comp))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(r, make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		w := b.NewWriter(io.Discard)
		if _, err := w.Write(data[:3*bb]); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running 2 s after dropping 40 streams, %d before",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBlockGet: registry integration via the block+ prefix.
func TestBlockGet(t *testing.T) {
	c, err := Get("block+transform+bzip2")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "block+transform+bzip2" {
		t.Fatalf("Name = %q", c.Name())
	}
	if _, err := Get("block+nope"); err == nil {
		t.Error("block+unknown must error")
	}
	if _, err := Get("block+"); err == nil {
		t.Error("bare block+ must error")
	}
	data := gridWalkStream(10)
	comp, err := Compress(c, data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(c, comp)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("block+transform+bzip2 roundtrip: %v", err)
	}
}

// FuzzBlockRoundTrip: random payloads, block sizes, and widths must
// roundtrip and stay byte-identical to refBlockEncode.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add([]byte("hello world"), 64, uint8(2))
	f.Add(gridWalkStream(6), 1000, uint8(4))
	f.Add([]byte{}, 1, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, blockBytes int, procs uint8) {
		if blockBytes <= 0 || blockBytes > 1<<20 {
			blockBytes = 1 + (blockBytes&0xffff+0x10000)%0xffff
		}
		w := int(procs%8) + 1
		setProcs(t, w)
		want, err := refBlockEncode(NewTransform(Zlib), blockBytes, data)
		if err != nil {
			t.Fatal(err)
		}
		b := &Block{Inner: NewTransform(Zlib), BlockBytes: blockBytes}
		got, err := Compress(b, data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("width %d encode differs from refBlockEncode (bb=%d)", w, blockBytes)
		}
		back, err := Decompress(b, got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatal("roundtrip mismatch")
		}
	})
}

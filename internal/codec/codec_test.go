package codec

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
)

func gridWalkStream(n int) []byte {
	out := make([]byte, 0, n*n*n*12)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			for z := 0; z < n; z++ {
				out = binary.BigEndian.AppendUint32(out, uint32(x))
				out = binary.BigEndian.AppendUint32(out, uint32(y))
				out = binary.BigEndian.AppendUint32(out, uint32(z))
			}
		}
	}
	return out
}

func TestAllCodecsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 10000)
	rng.Read(random)
	inputs := map[string][]byte{
		"empty":    nil,
		"tiny":     []byte("x"),
		"text":     bytes.Repeat([]byte("the quick brown fox "), 500),
		"random":   random,
		"gridwalk": gridWalkStream(12),
		"zeros":    make([]byte, 50000),
	}
	for _, name := range Names() {
		c, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for label, data := range inputs {
			comp, err := Compress(c, data)
			if err != nil {
				t.Fatalf("%s/%s compress: %v", name, label, err)
			}
			back, err := Decompress(c, comp)
			if err != nil {
				t.Fatalf("%s/%s decompress: %v", name, label, err)
			}
			if !bytes.Equal(back, data) {
				t.Errorf("%s/%s roundtrip mismatch", name, label)
			}
		}
	}
}

func TestGetUnknown(t *testing.T) {
	for _, name := range []string{"lz77", "block+", "block+block+zlib", "transform+block+zlib"} {
		if _, err := Get(name); err == nil {
			t.Errorf("Get(%q) must error", name)
		}
	}
	c, err := Get("TRANSFORM+GZIP") // case-insensitive
	if err != nil || c.Name() != "transform+gzip" {
		t.Errorf("Get uppercase: %v, %v", c, err)
	}
}

func TestTransformImprovesGzipOnKeyStreams(t *testing.T) {
	// The core claim of Section III (Fig. 3): on grid-walk key streams the
	// transform dramatically improves the downstream codec. gzip alone
	// achieves ~13% on this input; transform+gzip lands near 0.3%.
	data := gridWalkStream(40) // 768,000 bytes
	plain, err := Compress(Gzip, data)
	if err != nil {
		t.Fatal(err)
	}
	stacked, err := Compress(NewTransform(Gzip), data)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacked)*10 > len(plain) {
		t.Errorf("transform+gzip = %d bytes vs gzip = %d; expected >10x improvement",
			len(stacked), len(plain))
	}
}

func TestTransformSynergyWithBzip2(t *testing.T) {
	// "the transform appears to be synergistic with bzip2" — stacking must
	// improve on plain bzip2 for the structured stream.
	data := gridWalkStream(30)
	plain, err := Compress(Bzip2, data)
	if err != nil {
		t.Fatal(err)
	}
	stacked, err := Compress(NewTransform(Bzip2), data)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacked) >= len(plain) {
		t.Errorf("transform+bzip2 = %d bytes vs bzip2 = %d; expected improvement",
			len(stacked), len(plain))
	}
}

func TestStreamingChunkedReads(t *testing.T) {
	data := gridWalkStream(15)
	for _, name := range []string{"gzip", "transform+gzip", "transform+bzip2"} {
		c, _ := Get(name)
		comp, err := Compress(c, data)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.NewReader(bytes.NewReader(comp))
		if err != nil {
			t.Fatal(err)
		}
		// Read in odd-sized chunks.
		var back []byte
		buf := make([]byte, 777)
		for {
			n, err := r.Read(buf)
			back = append(back, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if !bytes.Equal(back, data) {
			t.Errorf("%s chunked read mismatch", name)
		}
	}
}

func TestStreamingChunkedWrites(t *testing.T) {
	data := gridWalkStream(15)
	rng := rand.New(rand.NewSource(7))
	for _, name := range []string{"zlib", "transform+zlib"} {
		c, _ := Get(name)
		var buf bytes.Buffer
		w := c.NewWriter(&buf)
		for off := 0; off < len(data); {
			n := 1 + rng.Intn(1000)
			if off+n > len(data) {
				n = len(data) - off
			}
			if _, err := w.Write(data[off : off+n]); err != nil {
				t.Fatal(err)
			}
			off += n
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := Decompress(c, buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Errorf("%s chunked write mismatch", name)
		}
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 8 {
		t.Errorf("expected 8 codecs, got %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("Names must be sorted")
		}
	}
}

// Package codec provides the pluggable compression interface modeled on
// Hadoop's CompressionCodec — the extension point Section III exploits:
// "our first approach was to take advantage of Hadoop's pluggable
// compression and write a custom compression module."
//
// Available codecs: none, gzip, zlib, bzip2 (this repository's encoder),
// and "transform+X" stacks that run the Section III predictive transform
// before a generic codec. Any name accepts one "block+" prefix wrapping the
// stack in the parallel block pipeline (independent fixed-size blocks,
// up to GOMAXPROCS coded at once, reassembled in order — see Block).
package codec

import (
	"bytes"
	stdbzip2 "compress/bzip2"
	"compress/gzip"
	"compress/zlib"
	"fmt"
	"io"
	"sort"
	"strings"

	"scikey/internal/bzip2"
	"scikey/internal/predictor"
)

// Codec creates compressing writers and decompressing readers.
type Codec interface {
	// Name identifies the codec ("gzip", "transform+bzip2", ...).
	Name() string
	// NewWriter returns a stream compressor; Close flushes the codec
	// framing but not the underlying writer.
	NewWriter(w io.Writer) io.WriteCloser
	// NewReader returns a stream decompressor.
	NewReader(r io.Reader) (io.ReadCloser, error)
}

// None is the identity codec.
var None Codec = noneCodec{}

type noneCodec struct{}

func (noneCodec) Name() string { return "none" }

func (noneCodec) NewWriter(w io.Writer) io.WriteCloser { return &nopWriteCloser{w} }

func (noneCodec) NewReader(r io.Reader) (io.ReadCloser, error) {
	return &nopReadCloser{r}, nil
}

type nopWriteCloser struct{ io.Writer }

func (*nopWriteCloser) Close() error { return nil }

func (w *nopWriteCloser) Reset(dst io.Writer) { w.Writer = dst }

type nopReadCloser struct{ io.Reader }

func (*nopReadCloser) Close() error { return nil }

func (r *nopReadCloser) Reset(src io.Reader) error {
	r.Reader = src
	return nil
}

// Gzip wraps compress/gzip at the default level.
var Gzip Codec = gzipCodec{}

type gzipCodec struct{}

func (gzipCodec) Name() string { return "gzip" }

func (gzipCodec) NewWriter(w io.Writer) io.WriteCloser { return gzip.NewWriter(w) }

func (gzipCodec) NewReader(r io.Reader) (io.ReadCloser, error) {
	return gzip.NewReader(r)
}

// Zlib wraps compress/zlib — Hadoop's built-in DefaultCodec (zlib/deflate),
// the codec used in the Section III-E cluster experiment.
var Zlib Codec = zlibCodec{}

type zlibCodec struct{}

func (zlibCodec) Name() string { return "zlib" }

func (zlibCodec) NewWriter(w io.Writer) io.WriteCloser { return zlib.NewWriter(w) }

func (zlibCodec) NewReader(r io.Reader) (io.ReadCloser, error) {
	return zlib.NewReader(r)
}

// Bzip2 compresses with this repository's encoder and decompresses with the
// standard library.
var Bzip2 Codec = bzip2Codec{}

type bzip2Codec struct{}

func (bzip2Codec) Name() string { return "bzip2" }

func (bzip2Codec) NewWriter(w io.Writer) io.WriteCloser { return bzip2.NewWriter(w) }

func (bzip2Codec) NewReader(r io.Reader) (io.ReadCloser, error) {
	return io.NopCloser(stdbzip2.NewReader(r)), nil
}

// Transform stacks the Section III predictive byte transform in front of an
// inner codec. The transform is lossless, 1:1 in length, and streaming, so
// the stack composes like any other codec.
type Transform struct {
	Inner Codec
	// Cfg parameterizes the predictor; the zero value uses the paper's
	// defaults (adaptive, MaxStride 100).
	Cfg predictor.Config
	// StatsFunc, when non-nil, receives the transformer's telemetry once
	// per compressed stream, at writer Close. Pooled writers reset the
	// transformer on reuse, so each report covers exactly one stream
	// (one IFile segment in the engine). Must be safe for concurrent
	// calls: spill writers run on worker goroutines.
	StatsFunc func(predictor.Stats)
}

// NewTransform stacks the transform over inner with default parameters.
func NewTransform(inner Codec) *Transform { return &Transform{Inner: inner} }

// Name implements Codec.
func (t *Transform) Name() string { return "transform+" + t.Inner.Name() }

// NewWriter implements Codec.
func (t *Transform) NewWriter(w io.Writer) io.WriteCloser {
	return &transformWriter{
		inner: t.Inner.NewWriter(w),
		tr:    predictor.NewTransformer(t.Cfg),
		stats: t.StatsFunc,
	}
}

// NewReader implements Codec.
func (t *Transform) NewReader(r io.Reader) (io.ReadCloser, error) {
	inner, err := t.Inner.NewReader(r)
	if err != nil {
		return nil, err
	}
	return &transformReader{
		inner: inner,
		tr:    predictor.NewTransformer(t.Cfg),
	}, nil
}

type transformWriter struct {
	inner io.WriteCloser
	tr    *predictor.Transformer
	stats func(predictor.Stats)
	buf   []byte
}

func (w *transformWriter) Write(p []byte) (int, error) {
	w.buf = w.tr.Forward(w.buf[:0], p)
	n, err := w.inner.Write(w.buf)
	if err != nil {
		// The transform is 1:1 in length, so the n transformed bytes the
		// inner writer accepted correspond exactly to the first n input
		// bytes — report that partial count, per the io.Writer contract.
		if n > len(p) {
			n = len(p)
		}
		return n, err
	}
	return len(p), nil
}

func (w *transformWriter) Close() error {
	if w.stats != nil {
		w.stats(w.tr.Stats())
	}
	return w.inner.Close()
}

// Reset rebinds the writer to a new destination and restarts the transform
// stream, retaining the transformer and scratch buffer. It must only be
// called when the inner writer is resettable (see poolableWriter).
func (w *transformWriter) Reset(dst io.Writer) {
	w.inner.(interface{ Reset(io.Writer) }).Reset(dst)
	w.tr.Reset()
}

type transformReader struct {
	inner io.ReadCloser
	tr    *predictor.Transformer
	buf   []byte
}

func (r *transformReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if cap(r.buf) < len(p) {
		r.buf = make([]byte, len(p))
	}
	n, err := r.inner.Read(r.buf[:len(p)])
	if n > 0 {
		out := r.tr.Inverse(p[:0], r.buf[:n])
		_ = out // Inverse appends exactly n bytes into p's storage
	}
	return n, err
}

func (r *transformReader) Close() error { return r.inner.Close() }

// Reset rebinds the reader to a new source stream, retaining the
// transformer and scratch buffer. It must only be called when the inner
// reader is resettable (see poolableReader).
func (r *transformReader) Reset(src io.Reader) error {
	if err := resetReader(r.inner, src); err != nil {
		return err
	}
	r.tr.Reset()
	return nil
}

// registry of named codecs for CLIs and experiment drivers.
func registry() map[string]func() Codec {
	return map[string]func() Codec{
		"none":            func() Codec { return None },
		"gzip":            func() Codec { return Gzip },
		"zlib":            func() Codec { return Zlib },
		"bzip2":           func() Codec { return Bzip2 },
		"transform+gzip":  func() Codec { return NewTransform(Gzip) },
		"transform+zlib":  func() Codec { return NewTransform(Zlib) },
		"transform+bzip2": func() Codec { return NewTransform(Bzip2) },
		"transform+none":  func() Codec { return NewTransform(None) },
	}
}

// Get returns the codec registered under name. One "block+" prefix wraps any
// registered codec in the parallel block pipeline with the default block
// size (e.g. "block+transform+bzip2").
func Get(name string) (Codec, error) {
	rest, block := strings.CutPrefix(strings.ToLower(name), "block+")
	f, ok := registry()[rest]
	if !ok {
		return nil, fmt.Errorf("codec: unknown codec %q (have %s, optionally prefixed block+)", name, strings.Join(Names(), ", "))
	}
	if block {
		return NewBlock(f()), nil
	}
	return f(), nil
}

// Names lists the registered codec names, sorted.
func Names() []string {
	r := registry()
	out := make([]string, 0, len(r))
	for n := range r {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Compress runs data through c in one shot.
func Compress(c Codec, data []byte) ([]byte, error) {
	var buf bytes.Buffer
	w := c.NewWriter(&buf)
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decompress inverts Compress.
func Decompress(c Codec, data []byte) ([]byte, error) {
	r, err := c.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"

	"scikey/internal/bufpool"
)

// The block pipeline splits a stream into independent fixed-size blocks and
// codes each with the inner codec (typically transform+X) on its own
// goroutine. The predictive transform is self-synchronizing and bzip2 is
// block-structured, so restarting the inner stream every BlockBytes of raw
// input costs a little ratio and buys embarrassing parallelism.
//
// Framing is position-determined, never scheduling-determined: block
// boundaries fall at exact multiples of BlockBytes of raw input, and each
// block is a complete, independent inner-codec stream. The encoded bytes are
// therefore identical for every GOMAXPROCS — the width only changes how many
// blocks are in flight, not what a block is.
//
// Wire format, all lengths big-endian:
//
//	stream := block* end
//	block  := rawLen u32 | compLen u32 | comp[compLen]
//	end    := rawLen=0 compLen=0 (eight zero bytes)

// DefaultBlockBytes is the raw-input block size when Block.BlockBytes is 0.
// 256 KiB keeps per-block codec restart cost under ~1% while giving every
// core plenty of blocks to overlap on real segments.
const DefaultBlockBytes = 256 << 10

// maxBlockLen bounds the frame lengths a reader will believe, so a corrupt
// header cannot ask for a multi-gigabyte allocation. It matches the largest
// bufpool size class.
const maxBlockLen = 64 << 20

// Block runs Inner over independent fixed-size blocks, up to GOMAXPROCS of
// them at once, with in-order reassembly. It implements Codec; Name() is
// "block+<inner>". A Block must be used by pointer and is safe for
// concurrent use; writers and readers it creates are each single-goroutine
// like any codec stream.
type Block struct {
	// Inner compresses each block as one complete stream.
	Inner Codec
	// BlockBytes is the raw bytes per block (default DefaultBlockBytes).
	// It is part of the wire layout: both sides see the same bytes for any
	// value, but the value chosen at encode time determines the frames.
	BlockBytes int

	initPools sync.Once
	wpool     *WriterPool
	rpool     *ReaderPool
}

// NewBlock wraps inner with the default block size.
func NewBlock(inner Codec) *Block { return &Block{Inner: inner} }

// Name implements Codec.
func (b *Block) Name() string { return "block+" + b.Inner.Name() }

func (b *Block) blockBytes() int {
	if b.BlockBytes <= 0 {
		return DefaultBlockBytes
	}
	return b.BlockBytes
}

// pools lazily builds the inner-codec stream pools shared by all of this
// Block's writers, readers, and their block goroutines.
func (b *Block) pools() {
	b.initPools.Do(func() {
		b.wpool = NewWriterPool(b.Inner)
		b.rpool = NewReaderPool(b.Inner)
	})
}

// NewWriter implements Codec.
func (b *Block) NewWriter(w io.Writer) io.WriteCloser {
	b.pools()
	return &blockWriter{b: b, dst: w, q: newRing()}
}

// NewReader implements Codec. The reader validates frames lazily: a corrupt
// stream surfaces on Read, not here.
func (b *Block) NewReader(r io.Reader) (io.ReadCloser, error) {
	b.pools()
	return &blockReader{b: b, src: r, q: newRing()}, nil
}

// slot is one block in flight. The stream hands in to a goroutine, which
// fills out or err, recycles in, and signals done; the stream receives from
// done before it touches the slot again. A stream dropped without Close
// leaves nothing waiting: done is buffered, so the goroutine still exits.
type slot struct {
	done   chan struct{}
	in     []byte // raw block (encode) or compressed payload (decode); bufpool
	rawLen int
	out    []byte // compressed block (encode) or raw block (decode); bufpool
	err    error
	br     bytes.Reader
}

// Write appends to out: the slot is its inner encoder's destination.
func (s *slot) Write(p []byte) (int, error) {
	s.out = append(s.out, p...)
	return len(p), nil
}

// encode compresses s.in as one complete inner stream into s.out.
func (b *Block) encode(s *slot) {
	s.rawLen = len(s.in)
	s.out = bufpool.Get(len(s.in)/2 + 64)[:0]
	w := b.wpool.Get(s)
	_, err := w.Write(s.in)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	b.wpool.Put(w)
	s.finish(err)
}

// decode inflates s.in into s.out, verifying that the inner stream holds
// exactly s.rawLen bytes.
func (b *Block) decode(s *slot) {
	s.br.Reset(s.in)
	rc, err := b.rpool.Get(&s.br)
	if err == nil {
		s.out = bufpool.Get(s.rawLen)[:s.rawLen]
		_, err = io.ReadFull(rc, s.out)
		if err == nil {
			var one [1]byte
			if n, terr := io.ReadFull(rc, one[:]); n != 0 {
				err = fmt.Errorf("codec: block stream longer than declared %d bytes", s.rawLen)
			} else if terr != io.EOF {
				err = terr
			}
		}
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		b.rpool.Put(rc)
	}
	s.finish(err)
}

// finish recycles the input, drops the output of a failed block, and
// signals done.
func (s *slot) finish(err error) {
	if err != nil && s.out != nil {
		bufpool.Put(s.out)
		s.out = nil
	}
	s.err = err
	bufpool.Put(s.in)
	s.in = nil
	s.done <- struct{}{}
}

// ring is a stream's in-order window of blocks in flight: at most width
// slots, oldest first, each coded on its own goroutine. width is GOMAXPROCS,
// read once per stream.
type ring struct {
	width int
	busy  []*slot
	free  []*slot
}

func newRing() ring { return ring{width: runtime.GOMAXPROCS(0)} }

func (q *ring) full() bool { return len(q.busy) >= q.width }

// start queues a slot carrying in; the caller hands it to a goroutine.
func (q *ring) start(in []byte, rawLen int) *slot {
	var s *slot
	if n := len(q.free); n > 0 {
		s, q.free = q.free[n-1], q.free[:n-1]
	} else {
		s = &slot{done: make(chan struct{}, 1)}
	}
	s.in, s.rawLen = in, rawLen
	q.busy = append(q.busy, s)
	return s
}

// pop waits for the oldest slot and dequeues it.
func (q *ring) pop() *slot {
	s := q.busy[0]
	<-s.done
	n := copy(q.busy, q.busy[1:])
	q.busy[n] = nil
	q.busy = q.busy[:n]
	return s
}

// recycle returns a popped slot's output buffer and the slot itself.
func (q *ring) recycle(s *slot) {
	if s.out != nil {
		bufpool.Put(s.out)
	}
	s.out, s.err = nil, nil
	q.free = append(q.free, s)
}

// drain waits for every slot in flight and recycles it, leaving the ring
// empty and its width re-read for the next stream.
func (q *ring) drain() {
	for len(q.busy) > 0 {
		q.recycle(q.pop())
	}
	q.width = runtime.GOMAXPROCS(0)
}

// blockWriter buffers raw input to BlockBytes boundaries and hands each
// block to its own goroutine. When the ring is full it writes out the
// oldest block's frame first, so memory stays at about two blocks per slot.
type blockWriter struct {
	b   *Block
	dst io.Writer
	err error  // sticky
	raw []byte // block being filled (bufpool)
	q   ring
	hdr [8]byte
}

func (w *blockWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	consumed := 0
	bb := w.b.blockBytes()
	for len(p) > 0 {
		if w.raw == nil {
			w.raw = bufpool.Get(bb)[:0]
		}
		n := min(bb-len(w.raw), len(p))
		w.raw = append(w.raw, p[:n]...)
		consumed += n
		p = p[n:]
		if len(w.raw) == bb {
			if err := w.push(); err != nil {
				w.stop(err)
				return consumed, err
			}
		}
	}
	return consumed, nil
}

// push hands the current block to its own goroutine, writing out the
// oldest block first when the ring is full.
func (w *blockWriter) push() error {
	if w.q.full() {
		if err := w.writeOldest(); err != nil {
			return err
		}
	}
	go w.b.encode(w.q.start(w.raw, 0))
	w.raw = nil
	return nil
}

// writeOldest waits for the oldest block in flight and writes its frame.
func (w *blockWriter) writeOldest() error {
	s := w.q.pop()
	defer w.q.recycle(s)
	if s.err != nil {
		return s.err
	}
	binary.BigEndian.PutUint32(w.hdr[0:4], uint32(s.rawLen))
	binary.BigEndian.PutUint32(w.hdr[4:8], uint32(len(s.out)))
	if _, err := w.dst.Write(w.hdr[:]); err != nil {
		return err
	}
	_, err := w.dst.Write(s.out)
	return err
}

// stop waits for every block in flight, recycles all buffers, and sets the
// sticky error (nil to start a new stream).
func (w *blockWriter) stop(err error) {
	w.err = err
	w.q.drain()
	if w.raw != nil {
		bufpool.Put(w.raw)
		w.raw = nil
	}
}

// Close pushes the final partial block, writes every frame in order, and
// writes the end marker. The underlying writer is not closed.
func (w *blockWriter) Close() error {
	if w.err != nil {
		return w.err
	}
	var err error
	if w.raw != nil {
		err = w.push()
	}
	for err == nil && len(w.q.busy) > 0 {
		err = w.writeOldest()
	}
	if err == nil {
		var end [8]byte
		_, err = w.dst.Write(end[:])
	}
	if err != nil {
		w.stop(err)
	}
	return err
}

// Reset rebinds the writer to a new destination stream for pooled reuse.
func (w *blockWriter) Reset(dst io.Writer) {
	w.stop(nil)
	w.dst = dst
}

// blockReader decodes a block stream. It reads frames from the source on
// the caller's goroutine, in order, so fault and corruption positions are
// exactly the sequential ones; it decodes up to a ring's width of frames
// ahead and serves them strictly in frame order, so an error surfaces after
// the same delivered prefix at every width.
type blockReader struct {
	b   *Block
	src io.Reader
	err error // sticky, io.EOF included
	end error // terminal frame (end marker or read error), served after every queued block
	cur *slot // block being served
	pos int
	q   ring
	hdr [8]byte
}

func (r *blockReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	for r.cur == nil || r.pos == len(r.cur.out) {
		if err := r.next(); err != nil {
			r.err = err
			return 0, err
		}
	}
	n := copy(p, r.cur.out[r.pos:])
	r.pos += n
	return n, nil
}

// next recycles the served block, tops the ring up with frames read from
// the source, and makes the oldest decoded block current.
func (r *blockReader) next() error {
	if r.cur != nil {
		r.q.recycle(r.cur)
		r.cur = nil
	}
	for r.end == nil && !r.q.full() {
		rawLen, comp, err := readFrame(r.src, &r.hdr)
		if err != nil {
			r.end = err
			break
		}
		go r.b.decode(r.q.start(comp, rawLen))
	}
	if len(r.q.busy) == 0 {
		return r.end
	}
	s := r.q.pop()
	if err := s.err; err != nil {
		r.q.recycle(s)
		return err
	}
	r.cur, r.pos = s, 0
	return nil
}

// readFrame reads and validates one frame from src, returning its payload
// in a bufpool buffer. It returns io.EOF exactly at the end marker; a
// source that ends anywhere else is corrupt and surfaces as
// io.ErrUnexpectedEOF.
func readFrame(src io.Reader, hdr *[8]byte) (rawLen int, comp []byte, err error) {
	if _, err := io.ReadFull(src, hdr[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	rawLen = int(binary.BigEndian.Uint32(hdr[0:4]))
	compLen := int(binary.BigEndian.Uint32(hdr[4:8]))
	if rawLen == 0 && compLen == 0 {
		return 0, nil, io.EOF
	}
	if rawLen == 0 || compLen == 0 || rawLen > maxBlockLen || compLen > maxBlockLen {
		return 0, nil, fmt.Errorf("codec: corrupt block frame header (raw=%d comp=%d)", rawLen, compLen)
	}
	comp = bufpool.Get(compLen)[:compLen]
	if _, err := io.ReadFull(src, comp); err != nil {
		bufpool.Put(comp)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return rawLen, comp, nil
}

// release waits for every block in flight and recycles all buffers.
func (r *blockReader) release() {
	if r.cur != nil {
		r.q.recycle(r.cur)
		r.cur = nil
	}
	r.q.drain()
	r.end = nil
	r.pos = 0
}

// Close waits for the blocks in flight; the underlying reader is not closed.
func (r *blockReader) Close() error {
	r.release()
	return nil
}

// Reset rebinds the reader to a new source stream for pooled reuse.
func (r *blockReader) Reset(src io.Reader) error {
	r.release()
	r.src = src
	r.err = nil
	return nil
}

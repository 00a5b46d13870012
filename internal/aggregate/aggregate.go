// Package aggregate is the user-side aggregation library of Section IV-A.
// Hadoop cannot aggregate keys itself (it assumes key/value pairs are
// independent and atomic), so "instead of passing intermediate key/value
// pairs directly to Hadoop, the user's code passes the key/value pairs to
// our library. The library aggregates key/value pairs and periodically
// passes the aggregated key/value pairs to Hadoop."
//
// Aggregation happens in space-filling-curve index space: each coordinate
// maps to a curve index, and contiguous index runs collapse into one
// aggregate key whose value payload is the concatenated cell values in
// curve order (Fig. 6). The buffer is bounded: when it reaches the flush
// threshold it is drained, trading a little aggregation quality for memory
// (Section IV-A's closing paragraph).
package aggregate

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"scikey/internal/grid"
	"scikey/internal/keys"
	"scikey/internal/sfc"
)

// Mapping converts between domain coordinates and curve indices. The
// domain may include halo cells with negative coordinates (sliding-window
// queries); implementations bias them into the curve's index space.
type Mapping interface {
	// Index maps a domain coordinate to its curve index.
	Index(c grid.Coord) uint64
	// Coord inverts Index.
	Coord(idx uint64) grid.Coord
	// Total returns the size of the index space.
	Total() uint64
}

// MappingFor builds a Mapping over domain using the named linearization.
// "zorder" and "hilbert" embed the domain in a power-of-2 cube; "rowmajor"
// uses the exact row-major offset within the domain, the "values can be
// stored in order" layout of Section I (a full row-major walk of the domain
// is then a single contiguous range).
func MappingFor(curveName string, domain grid.Box) (Mapping, error) {
	if curveName == "rowmajor" {
		return BoxMapping{Domain: domain.Clone()}, nil
	}
	maxSide := 1
	for _, s := range domain.Size {
		if s > maxSide {
			maxSide = s
		}
	}
	if bits.Len(uint(maxSide-1))*domain.Rank() > 64 {
		return nil, fmt.Errorf("aggregate: domain %v overflows a 64-bit curve index", domain)
	}
	c, err := sfc.ForSide(curveName, domain.Rank(), maxSide)
	if err != nil {
		return nil, err
	}
	return CurveMapping{Curve: c, Origin: domain.Corner.Clone()}, nil
}

// CurveMapping ties an sfc.Curve to a concrete domain box, biasing
// coordinates so that halo cells land in the curve's non-negative cube.
type CurveMapping struct {
	Curve  sfc.Curve
	Origin grid.Coord
}

// Index implements Mapping.
func (m CurveMapping) Index(c grid.Coord) uint64 {
	return m.indexVia(make(grid.Coord, len(c)), c)
}

// IndexFunc returns m.Index for one goroutine's use: a CurveMapping biases
// each coordinate into a scratch the function owns, so a call allocates
// nothing. c is not retained.
func IndexFunc(m Mapping) func(c grid.Coord) uint64 {
	if cm, ok := m.(CurveMapping); ok {
		biased := make(grid.Coord, len(cm.Origin))
		return func(c grid.Coord) uint64 { return cm.indexVia(biased, c) }
	}
	return m.Index
}

// indexVia is Index with the biased coordinate written into a scratch the
// caller owns: the curve is reached through an interface, so a coordinate
// built here would be a heap allocation per call.
func (m CurveMapping) indexVia(biased, c grid.Coord) uint64 {
	for i := range c {
		biased[i] = c[i] - m.Origin[i]
	}
	return m.Curve.Index(biased)
}

// Coord implements Mapping.
func (m CurveMapping) Coord(idx uint64) grid.Coord {
	c := m.Curve.Coord(idx)
	for i := range c {
		c[i] += m.Origin[i]
	}
	return c
}

// Total implements Mapping.
func (m CurveMapping) Total() uint64 { return m.Curve.Total() }

// BoxMapping is exact row-major linearization of a domain box.
type BoxMapping struct {
	Domain grid.Box
}

// Index implements Mapping.
func (m BoxMapping) Index(c grid.Coord) uint64 {
	if !m.Domain.Contains(c) {
		panic(fmt.Sprintf("aggregate: coordinate %v outside domain %v", c, m.Domain))
	}
	return uint64(grid.RowMajorIndex(m.Domain, c))
}

// Coord implements Mapping.
func (m BoxMapping) Coord(idx uint64) grid.Coord {
	return grid.CoordAtRowMajor(m.Domain, int64(idx))
}

// Total implements Mapping.
func (m BoxMapping) Total() uint64 { return uint64(m.Domain.NumCells()) }

// Config parameterizes an Aggregator.
type Config struct {
	// Mapping converts coordinates to curve indices.
	Mapping Mapping
	// Var tags emitted aggregate keys.
	Var keys.VarRef
	// ElemSize is the fixed per-cell value size in bytes.
	ElemSize int
	// FlushCells is the flush threshold: the buffer is drained when it
	// holds this many cells. A bound, not a size — the buffer grows with
	// the cells added. Default 1 << 16; at most MaxUint32.
	FlushCells int
	// Align, when > 1, expands every emitted range to multiples of Align
	// (Section IV-C's alignment expansion). Padding cells carry zeroed
	// values and must be tolerated by the reducer; the engine's overlap
	// splitting handles the rest.
	Align uint64
	// Emit receives each aggregate pair. p.Values is lent: it is valid only
	// during the call, and the receiver must not write to it. It is cut
	// from the buffer's gather scratch (capacity capped at its length),
	// which the next layer overwrites and which goes back to the pool with
	// the buffer's storage. A receiver that keeps a pair copies its values,
	// as the map task's emit does into its partition arena.
	Emit func(p keys.AggPair)
}

// Stats reports aggregation effectiveness.
type Stats struct {
	// CellsIn counts Add calls.
	CellsIn int64
	// PairsOut counts emitted aggregate pairs.
	PairsOut int64
	// Flushes counts buffer drains.
	Flushes int64
	// PadCells counts alignment padding cells emitted.
	PadCells int64
}

// entry is one buffered cell: its index and its arrival ordinal since the
// last drain, which is also where its value sits in the arena.
type entry struct {
	idx uint64
	ord uint32
}

// Buffer is the bounded buffer of Section IV-A, the half of the library
// that does not know what an aggregate key looks like: cells go in by index,
// the value copied into one arena, and come out as index-sorted,
// duplicate-free layers. Aggregator drains it into curve ranges; boxagg
// indexes cells by row-major offset in the output domain — the order
// grid.Coord.Compare gives them — and drains it into n-D boxes.
type Buffer struct {
	elemSize, flushCells int
	storage
	// held is the pool's wrapper the storage last travelled in, reused to
	// send it back so that Release allocates nothing.
	held *storage
}

// storage is what a Buffer grows. buf holds the cells since the last drain
// and vals their values, cell ord at vals[ord*elemSize:]. tmp is Drain's
// scratch: the radix sort's other half, then the layer being emitted.
// gather is where a layer's values are collected in emission order and lent
// to Config.Emit. All four grow on demand and are reused across drains, and
// across tasks through pool.
type storage struct {
	buf, tmp     []entry
	vals, gather []byte
}

// pool holds the storage of released Buffers, so that a map task starts
// with what an earlier task grew instead of regrowing it from nothing. An
// emitted pair's values are lent from it only during the Emit call: storage
// goes back in Release, after the last Drain has returned.
var pool sync.Pool // of *storage

// NewBuffer returns a Buffer of elemSize-byte values that reports full at
// flushCells cells (default 1 << 16; at most MaxUint32).
func NewBuffer(elemSize, flushCells int) Buffer {
	if elemSize <= 0 {
		panic("aggregate: ElemSize must be positive")
	}
	if flushCells <= 0 {
		flushCells = 1 << 16
	}
	// Nothing is allocated for the threshold, and it stops where an
	// entry's uint32 ordinal does.
	if uint64(flushCells) > math.MaxUint32 {
		flushCells = math.MaxUint32
	}
	return Buffer{elemSize: elemSize, flushCells: flushCells}
}

// Len returns the number of buffered cells.
func (b *Buffer) Len() int { return len(b.buf) }

// Add buffers one cell. val must be exactly the element size; it is copied.
// Add reports whether the buffer has reached its threshold, at which the
// caller drains it.
func (b *Buffer) Add(idx uint64, val []byte) (full bool) {
	if len(val) != b.elemSize {
		panic(fmt.Sprintf("aggregate: value is %d bytes, want %d", len(val), b.elemSize))
	}
	if len(b.buf) == cap(b.buf) {
		b.grow()
	}
	b.buf = append(b.buf, entry{idx: idx, ord: uint32(len(b.buf))})
	b.vals = append(b.vals, val...)
	return len(b.buf) >= b.flushCells
}

// grow doubles the buffer and its arena, stopping at the flush threshold:
// append's own policy for large slices (a quarter at a time) would copy a
// task's cells five times over on the way up, and overshoot the threshold.
// An empty buffer first takes released storage from the pool.
func (b *Buffer) grow() {
	if cap(b.buf) == 0 && b.take() {
		return
	}
	n := min(max(2*cap(b.buf), 1024), b.flushCells)
	b.buf = append(make([]entry, 0, n), b.buf...)
	b.vals = append(make([]byte, 0, n*b.elemSize), b.vals...)
}

// take adopts storage from the pool, and reports whether the buffer now has
// room. An arena sized for a smaller element is replaced.
func (b *Buffer) take() bool {
	s, _ := pool.Get().(*storage)
	if s == nil {
		return false
	}
	b.storage, b.held = *s, s
	*s = storage{}
	if cap(b.vals) < cap(b.buf)*b.elemSize {
		b.vals = make([]byte, 0, cap(b.buf)*b.elemSize)
	}
	return cap(b.buf) > 0
}

// Release hands the buffer's storage to the pool for the next Buffer, in
// this task or another. The buffer must be empty (drained); it stays usable,
// and its next Add takes storage from the pool again.
func (b *Buffer) Release() {
	if len(b.buf) > 0 {
		panic("aggregate: Release of a buffer holding cells")
	}
	if cap(b.buf) == 0 {
		return
	}
	s := b.held
	if s == nil {
		s = new(storage)
	}
	*s = b.storage
	b.storage, b.held = storage{}, nil
	pool.Put(s)
}

// Drain empties the buffer into emit, one call per layer. Duplicate indices
// (a sliding window emits the same target cell from several sources) are
// layered: the i-th occurrence of an index joins the i-th layer, so every
// layer carries exactly one value per index.
func (b *Buffer) Drain(emit func(Layer)) {
	if cap(b.tmp) != cap(b.buf) { // buf grew since the last drain
		b.tmp = make([]entry, cap(b.buf))
	}
	b.sortByIndex()

	rest := b.buf
	for len(rest) > 0 {
		// The first of each run of equal indices joins this layer; the
		// others are compacted to the front of rest (never ahead of the
		// read position) for the next one.
		layer, carry := b.tmp[:0], 0
		for _, e := range rest {
			if n := len(layer); n > 0 && layer[n-1].idx == e.idx {
				rest[carry] = e
				carry++
			} else {
				layer = append(layer, e)
			}
		}
		emit(Layer{cells: layer, b: b})
		rest = rest[:carry]
	}
	b.buf = b.buf[:0]
	b.vals = b.vals[:0]
}

// sortByIndex orders buf by index with an LSD radix sort, one pass per
// index byte that differs anywhere in the buffer (a map task's cells share
// their high bytes). Every pass is stable, so equal indices stay in arrival
// order — which is what decides the layer a duplicate lands in, and with it
// every emitted key.
func (b *Buffer) sortByIndex() {
	src, dst := b.buf, b.tmp[:len(b.buf)]
	var differ uint64
	sorted := true
	for i := 1; i < len(src); i++ {
		differ |= src[i].idx ^ src[0].idx
		sorted = sorted && src[i-1].idx <= src[i].idx
	}
	if sorted {
		return
	}
	for shift := 0; shift < 64; shift += 8 {
		if differ>>shift&0xff == 0 {
			continue
		}
		var next [256]int
		for _, e := range src {
			next[e.idx>>shift&0xff]++
		}
		pos := 0
		for d, n := range next {
			next[d] = pos
			pos += n
		}
		for _, e := range src {
			d := e.idx >> shift & 0xff
			dst[next[d]] = e
			next[d]++
		}
		src, dst = dst, src
	}
	b.buf, b.tmp = src, dst
}

// Layer is one pass of a Drain: cells in strictly increasing index order,
// their values still in the buffer's arena. It is valid only inside the
// emit call it was passed to.
type Layer struct {
	cells []entry
	b     *Buffer
}

// Len returns the number of cells in the layer.
func (l Layer) Len() int { return len(l.cells) }

// Index returns the index of cell i.
func (l Layer) Index(i int) uint64 { return l.cells[i].idx }

// CopyValues gathers the values of cells i..j-1, in that order, into dst.
func (l Layer) CopyValues(dst []byte, i, j int) {
	es, vals := l.b.elemSize, l.b.vals
	if es == 4 { // every query's cell: no copy call per value
		for k, e := range l.cells[i:j] {
			*(*[4]byte)(dst[4*k:]) = *(*[4]byte)(vals[4*int(e.ord):])
		}
		return
	}
	for _, e := range l.cells[i:j] {
		copy(dst, vals[int(e.ord)*es:][:es])
		dst = dst[es:]
	}
}

// values gathers the values of cells i..j-1, in that order, into the
// buffer's gather scratch and returns them there: lent, like an emitted
// pair, until the next call.
func (l Layer) values(i, j int) []byte {
	g := l.b.lend((j - i) * l.b.elemSize)
	l.CopyValues(g, i, j)
	return g
}

// lend returns the gather scratch at n bytes, growing it if it is shorter.
// Its contents are whatever the last use left there.
func (b *Buffer) lend(n int) []byte {
	if cap(b.gather) < n {
		b.gather = make([]byte, n)
	}
	return b.gather[:n]
}

// Aggregator buffers (coordinate, value) cells and emits aggregate pairs.
// Not safe for concurrent use; build one per map task.
type Aggregator struct {
	cfg   Config
	index func(grid.Coord) uint64
	buf   Buffer
	stats Stats
}

// New returns an Aggregator for cfg.
func New(cfg Config) *Aggregator {
	if cfg.Emit == nil {
		panic("aggregate: Emit is required")
	}
	a := &Aggregator{cfg: cfg, buf: NewBuffer(cfg.ElemSize, cfg.FlushCells)}
	if cfg.Mapping != nil {
		a.index = IndexFunc(cfg.Mapping)
	}
	return a
}

// Add buffers one cell. val must be exactly ElemSize bytes; it is copied,
// and c is not retained. It is AddIndex written out again: AddIndex is over
// the inliner's budget, and a call level costs a coordinate-walking caller
// one more call per cell.
func (a *Aggregator) Add(c grid.Coord, val []byte) {
	a.stats.CellsIn++
	if a.buf.Add(a.index(c), val) {
		a.Flush()
	}
}

// AddIndex is Add for a caller that has the cell's index under the mapping
// already, as the mappers do.
func (a *Aggregator) AddIndex(idx uint64, val []byte) {
	a.stats.CellsIn++
	if a.buf.Add(idx, val) {
		a.Flush()
	}
}

// Flush drains the buffer, emitting one aggregate pair per contiguous index
// run of each layer, so every emitted range carries exactly one value per
// index.
func (a *Aggregator) Flush() {
	if a.buf.Len() == 0 {
		return
	}
	a.stats.Flushes++
	a.buf.Drain(a.emitLayer)
}

// emitLayer coalesces a layer into runs. The layer's values are gathered
// once into the buffer's gather scratch (Layer.values), and each pair's
// Values is its slice of it, lent for the Emit call (Config.Emit).
// Alignment padding makes a layer's size unknown until its runs are walked,
// so there each pair is laid out in the scratch alone: zeroed, then its
// cells copied in.
func (a *Aggregator) emitLayer(l Layer) {
	es := uint64(a.cfg.ElemSize)
	var block []byte
	if a.cfg.Align <= 1 {
		block = l.values(0, l.Len())
	}
	for i := 0; i < l.Len(); {
		j := i + 1
		for j < l.Len() && l.Index(j) == l.Index(j-1)+1 {
			j++
		}
		r := sfc.IndexRange{Lo: l.Index(i), Hi: l.Index(j-1) + 1}
		n := uint64(j - i)
		if a.cfg.Align > 1 {
			aligned := keys.AlignRange(r, a.cfg.Align)
			a.stats.PadCells += int64(aligned.Len() - r.Len())
			n, r = aligned.Len(), aligned
			block = a.buf.lend(int(n * es))
			clear(block) // padding cells carry zeroes
			l.CopyValues(block[(l.Index(i)-r.Lo)*es:], i, j)
		}
		vals := block[: n*es : n*es]
		block = block[n*es:]
		a.cfg.Emit(keys.AggPair{
			Key:    keys.AggKey{Var: a.cfg.Var, Range: r},
			Values: vals,
		})
		a.stats.PairsOut++
		i = j
	}
}

// Close flushes any remaining cells and hands the buffer's storage to the
// next aggregator. The aggregator stays usable.
func (a *Aggregator) Close() {
	a.Flush()
	a.buf.Release()
}

// Stats returns the aggregation statistics so far.
func (a *Aggregator) Stats() Stats { return a.stats }

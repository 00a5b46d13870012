package boxagg

import (
	"fmt"
	"slices"

	"scikey/internal/grid"
	"scikey/internal/keys"
)

// refAggregator is the Aggregator as it stood before it drained
// aggregate.Buffer, kept verbatim (only the type names changed) as the
// oracle the equivalence tests compare against: a coordinate clone and a
// value copy per Add, slices.SortStableFunc over {coord, []byte} entries
// under Coord.Compare, its own layering loop and a map keyed by
// Coord.String() to assemble payloads. It needs no domain. Whatever it
// emits, in whatever order, is what the shipped Aggregator must emit.
type refAggregator struct {
	cfg Config
	buf []refEntry
}

type refEntry struct {
	coord grid.Coord
	val   []byte
}

func newRef(cfg Config) *refAggregator {
	if cfg.ElemSize <= 0 {
		panic("boxagg: ElemSize must be positive")
	}
	if cfg.Emit == nil {
		panic("boxagg: Emit is required")
	}
	if cfg.FlushCells <= 0 {
		cfg.FlushCells = 1 << 16
	}
	return &refAggregator{cfg: cfg}
}

func (a *refAggregator) Add(c grid.Coord, val []byte) {
	if len(val) != a.cfg.ElemSize {
		panic(fmt.Sprintf("boxagg: value is %d bytes, want %d", len(val), a.cfg.ElemSize))
	}
	a.buf = append(a.buf, refEntry{coord: c.Clone(), val: append([]byte(nil), val...)})
	if len(a.buf) >= a.cfg.FlushCells {
		a.Flush()
	}
}

func (a *refAggregator) Flush() {
	if len(a.buf) == 0 {
		return
	}
	slices.SortStableFunc(a.buf, func(x, y refEntry) int { return x.coord.Compare(y.coord) })
	rest := a.buf
	layer := make([]refEntry, 0, len(rest))
	var carry []refEntry
	for len(rest) > 0 {
		layer = layer[:0]
		carry = carry[:0]
		for _, e := range rest {
			if n := len(layer); n > 0 && layer[n-1].coord.Equal(e.coord) {
				carry = append(carry, e)
			} else {
				layer = append(layer, e)
			}
		}
		a.emitLayer(layer)
		rest = append(rest[:0], carry...)
	}
	a.buf = a.buf[:0]
}

func (a *refAggregator) emitLayer(layer []refEntry) {
	boxes := GreedyBoxes(refCoordsOf(layer))
	// Index the layer's values for payload assembly.
	es := a.cfg.ElemSize
	lookup := make(map[string][]byte, len(layer))
	for _, e := range layer {
		lookup[e.coord.String()] = e.val
	}
	for _, b := range boxes {
		vals := make([]byte, 0, b.NumCells()*int64(es))
		grid.ForEach(b, func(c grid.Coord) {
			vals = append(vals, lookup[c.String()]...)
		})
		a.cfg.Emit(Pair{Key: keys.BoxKey{Var: a.cfg.Var, Box: b}, Values: vals})
	}
}

func refCoordsOf(layer []refEntry) []grid.Coord {
	out := make([]grid.Coord, len(layer))
	for i, e := range layer {
		out[i] = e.coord
	}
	return out
}

func (a *refAggregator) Close() { a.Flush() }

package aggregate

import (
	"fmt"
	"sort"

	"scikey/internal/grid"
	"scikey/internal/keys"
	"scikey/internal/sfc"
)

// refAggregator is the Aggregator as it stood before the arena/radix
// rewrite, kept verbatim (only the type names changed) as the oracle the
// equivalence tests compare against: one heap copy per value, a
// sort.SliceStable over {idx, []byte} entries, fresh layer/carry slices and
// one Values allocation per emitted run. Whatever it emits, in whatever
// order, is what the shipped Aggregator must emit.
type refAggregator struct {
	cfg   Config
	buf   []refEntry
	stats Stats
}

type refEntry struct {
	idx uint64
	val []byte
}

func newRef(cfg Config) *refAggregator {
	if cfg.ElemSize <= 0 {
		panic("aggregate: ElemSize must be positive")
	}
	if cfg.Emit == nil {
		panic("aggregate: Emit is required")
	}
	if cfg.FlushCells <= 0 {
		cfg.FlushCells = 1 << 16
	}
	return &refAggregator{cfg: cfg, buf: make([]refEntry, 0, cfg.FlushCells)}
}

func (a *refAggregator) Add(c grid.Coord, val []byte) {
	a.AddIndex(a.cfg.Mapping.Index(c), val)
}

func (a *refAggregator) AddIndex(idx uint64, val []byte) {
	if len(val) != a.cfg.ElemSize {
		panic(fmt.Sprintf("aggregate: value is %d bytes, want %d", len(val), a.cfg.ElemSize))
	}
	a.buf = append(a.buf, refEntry{idx: idx, val: append([]byte(nil), val...)})
	a.stats.CellsIn++
	if len(a.buf) >= a.cfg.FlushCells {
		a.Flush()
	}
}

func (a *refAggregator) Flush() {
	if len(a.buf) == 0 {
		return
	}
	a.stats.Flushes++
	sort.SliceStable(a.buf, func(i, j int) bool { return a.buf[i].idx < a.buf[j].idx })

	rest := a.buf
	layer := make([]refEntry, 0, len(rest))
	var carry []refEntry
	for len(rest) > 0 {
		layer = layer[:0]
		carry = carry[:0]
		for _, e := range rest {
			if n := len(layer); n > 0 && layer[n-1].idx == e.idx {
				carry = append(carry, e)
			} else {
				layer = append(layer, e)
			}
		}
		a.emitLayer(layer)
		// carry has its own backing array, so copying it over rest's
		// prefix is safe.
		rest = append(rest[:0], carry...)
	}
	a.buf = a.buf[:0]
}

func (a *refAggregator) emitLayer(layer []refEntry) {
	es := a.cfg.ElemSize
	for i := 0; i < len(layer); {
		j := i + 1
		for j < len(layer) && layer[j].idx == layer[j-1].idx+1 {
			j++
		}
		r := sfc.IndexRange{Lo: layer[i].idx, Hi: layer[j-1].idx + 1}
		var vals []byte
		if a.cfg.Align > 1 {
			aligned := keys.AlignRange(r, a.cfg.Align)
			vals = make([]byte, aligned.Len()*uint64(es))
			for k := i; k < j; k++ {
				off := (layer[k].idx - aligned.Lo) * uint64(es)
				copy(vals[off:], layer[k].val)
			}
			a.stats.PadCells += int64(aligned.Len() - r.Len())
			r = aligned
		} else {
			vals = make([]byte, 0, (j-i)*es)
			for k := i; k < j; k++ {
				vals = append(vals, layer[k].val...)
			}
		}
		a.cfg.Emit(keys.AggPair{
			Key:    keys.AggKey{Var: a.cfg.Var, Range: r},
			Values: vals,
		})
		a.stats.PairsOut++
		i = j
	}
}

func (a *refAggregator) Close() { a.Flush() }

func (a *refAggregator) Stats() Stats { return a.stats }

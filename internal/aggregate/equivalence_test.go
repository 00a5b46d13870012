package aggregate

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"scikey/internal/grid"
	"scikey/internal/keys"
)

// flushAt marks an explicit Flush in an index stream (no test adds it as an
// index: alignment arithmetic overflows there in both implementations).
const flushAt = math.MaxUint64

var (
	flushChoices = []int{1, 2, 7, 1 << 16}
	alignChoices = []uint64{0, 4}
	elemChoices  = []int{1, 4, 8}
)

// sink is what both implementations are driven through.
type sink interface {
	AddIndex(idx uint64, val []byte)
	Flush()
	Close()
	Stats() Stats
}

// feed sends the stream to s. Each cell's value is its ordinal in the
// stream, so two sequences of pairs agree only when every duplicate of an
// index landed in the same layer.
func feed(s sink, stream []uint64, elemSize int) {
	var ord [8]byte
	for i, idx := range stream {
		if idx == flushAt {
			s.Flush()
			continue
		}
		binary.LittleEndian.PutUint64(ord[:], uint64(i))
		s.AddIndex(idx, ord[:elemSize])
	}
	s.Close()
}

// assertSameEmission runs stream through the reference and the shipped
// Aggregator and compares the pair sequences (order, ranges, value bytes)
// and the statistics.
func assertSameEmission(t testing.TB, stream []uint64, cfg Config) {
	t.Helper()
	var want, got []keys.AggPair
	cfg.Emit = collectPairs(&want)
	ref := newRef(cfg)
	feed(ref, stream, cfg.ElemSize)
	cfg.Emit = collectPairs(&got)
	agg := New(cfg)
	feed(agg, stream, cfg.ElemSize)

	assertSamePairs(t, fmt.Sprintf("flush %d align %d elem %d", cfg.FlushCells, cfg.Align, cfg.ElemSize),
		got, agg.Stats(), want, ref.Stats())
}

func assertSamePairs(t testing.TB, label string, got []keys.AggPair, gotStats Stats, want []keys.AggPair, wantStats Stats) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, reference emits %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key {
			t.Fatalf("%s: pair %d key %v, reference %v", label, i, got[i].Key, want[i].Key)
		}
		if !bytes.Equal(got[i].Values, want[i].Values) {
			t.Fatalf("%s: pair %d (%v) values %x, reference %x", label, i, want[i].Key, got[i].Values, want[i].Values)
		}
	}
	if gotStats != wantStats {
		t.Fatalf("%s: stats %+v, reference %+v", label, gotStats, wantStats)
	}
}

func assertSameEmissionEverywhere(t *testing.T, stream []uint64) {
	t.Helper()
	for _, flush := range flushChoices {
		for _, align := range alignChoices {
			for _, es := range elemChoices {
				assertSameEmission(t, stream, Config{Var: keys.VarRef{Name: "v"}, ElemSize: es, FlushCells: flush, Align: align})
			}
		}
	}
}

// eachWindowTarget is the mapper's traffic: a row-major walk of box, every
// cell sent to its 3x3 window targets through one reused coordinate.
func eachWindowTarget(box grid.Box, fn func(target grid.Coord)) {
	target := make(grid.Coord, 2)
	grid.ForEach(box, func(c grid.Coord) {
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				target[0], target[1] = c[0]+dx, c[1]+dy
				fn(target)
			}
		}
	})
}

// windowStream is that traffic as indices under m.
func windowStream(m Mapping, box grid.Box) []uint64 {
	var out []uint64
	eachWindowTarget(box, func(c grid.Coord) { out = append(out, m.Index(c)) })
	return out
}

func TestFlushMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	domain := grid.NewBox(grid.Coord{-1, -1}, []int{34, 34})
	split := grid.NewBox(grid.Coord{8, 0}, []int{6, 32})

	streams := map[string][]uint64{
		"empty":           nil,
		"one cell":        {42},
		"flush only":      {flushAt, flushAt},
		"fig6":            {13, 5, 9, 6, 10, 7},
		"same cell":       {3, 3, 3, 4, 3, 3, 3, 3, 3, 3},
		"descending run":  {9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
		"explicit flush":  {5, 6, flushAt, 7, 5, flushAt, flushAt, 6},
		"every byte":      {1 << 56, 1 << 8, 1 << 48, 1, 1 << 40, 1 << 16, 1 << 32, 1 << 24, 1<<56 + 1, 0},
		"top of range":    {math.MaxUint64 - 8, math.MaxUint64 - 9, 0, math.MaxUint64 - 8},
		"zorder window":   windowStream(mustMapping(t, "zorder", domain), split),
		"hilbert window":  windowStream(mustMapping(t, "hilbert", domain), split),
		"rowmajor window": windowStream(mustMapping(t, "rowmajor", domain), split),
	}
	long := make([]uint64, 0, 3000)
	for i := 0; i < 1000; i++ {
		long = append(long, 1<<33+uint64(i)) // a run across a byte boundary
	}
	for i := 0; i < 2000; i++ {
		long = append(long, 1<<33+uint64(rng.Intn(300))) // piled on its head
	}
	streams["long run then duplicates"] = long
	sparse := make([]uint64, 500)
	for i := range sparse {
		sparse[i] = rng.Uint64() >> uint(rng.Intn(64))
	}
	streams["random widths"] = sparse

	for name, stream := range streams {
		t.Run(name, func(t *testing.T) { assertSameEmissionEverywhere(t, stream) })
	}
}

// TestAddMatchesReference drives the coordinate entry point, where the
// curve mapping biases into a scratch coordinate the aggregator owns.
func TestAddMatchesReference(t *testing.T) {
	domain := grid.NewBox(grid.Coord{-1, -1}, []int{34, 34})
	split := grid.NewBox(grid.Coord{8, 0}, []int{6, 32})
	for _, curve := range []string{"zorder", "hilbert", "peano", "rowmajor"} {
		cfg := Config{Mapping: mustMapping(t, curve, domain), ElemSize: 4, FlushCells: 500}
		var want, got []keys.AggPair
		cfg.Emit = collectPairs(&want)
		ref := newRef(cfg)
		cfg.Emit = collectPairs(&got)
		agg := New(cfg)
		var val [4]byte
		var n uint32
		eachWindowTarget(split, func(target grid.Coord) {
			n++
			binary.BigEndian.PutUint32(val[:], n)
			ref.Add(target.Clone(), val[:])
			agg.Add(target, val[:]) // reused, as the mapper does
		})
		ref.Close()
		agg.Close()
		assertSamePairs(t, curve, got, agg.Stats(), want, ref.Stats())
		if agg.Stats().Flushes < 3 {
			t.Fatalf("%s: %d flushes, the case must cross the threshold", curve, agg.Stats().Flushes)
		}
	}
}

// FuzzFlushEquivalence decodes data as a little program over a cursor —
// op 0 adds an index near the cursor (duplicates), op 1 a run of consecutive
// indices, op 2 moves the cursor by setting one of its eight bytes (so every
// radix pass runs), op 3 flushes — and checks the emission against the
// reference under one (FlushCells, Align, ElemSize) choice.
func FuzzFlushEquivalence(f *testing.F) {
	f.Add([]byte{0, 5, 0, 5, 0, 6, 1, 9, 0, 5}, uint8(0), uint8(0), uint8(1))
	f.Add([]byte{1, 200, 1, 200, 0, 0, 0, 0, 0, 0}, uint8(2), uint8(1), uint8(0))
	f.Add([]byte{2 | 7<<2, 0x7f, 1, 30, 2 | 1<<2, 3, 1, 30, 3, 0, 2 | 4<<2, 9, 0, 1, 0, 1}, uint8(3), uint8(1), uint8(2))
	f.Add([]byte{0, 9, 0, 8, 0, 7, 3, 0, 0, 9, 0, 9, 0, 9, 0, 9}, uint8(1), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, flushSel, alignSel, elemSel uint8) {
		var stream []uint64
		var cursor uint64
		for i := 0; i+1 < len(data) && len(stream) < 1<<10; i += 2 {
			op, arg := data[i], uint64(data[i+1])
			switch op & 3 {
			case 0:
				stream = append(stream, cursor+arg%16)
			case 1:
				for k := uint64(0); k < arg; k++ {
					stream = append(stream, cursor+k)
				}
				cursor += arg / 2 // the next run overlaps this one's tail
			case 2:
				shift := uint(op>>2&7) * 8
				cursor = cursor&^(0xff<<shift) | arg<<shift
				cursor &^= 1 << 63 // keep cursor+255 and its alignment in range
			case 3:
				stream = append(stream, flushAt)
			}
		}
		assertSameEmission(t, stream, Config{
			ElemSize:   elemChoices[int(elemSel)%len(elemChoices)],
			FlushCells: flushChoices[int(flushSel)%len(flushChoices)],
			Align:      alignChoices[int(alignSel)%len(alignChoices)],
		})
	})
}

// randomTask is one map task's traffic: cells random indices, through the
// reference and then through a fresh aggregator, which is closed. Whatever
// the aggregator lent Emit must be what the reference emits, pair for pair,
// each pair's capacity ending at its length (an append to it must not reach
// the next pair). It reports whether the aggregator's storage came from the
// pool.
func randomTask(errorf func(string, ...any), rng *rand.Rand, cells int) (pooled bool) {
	stream := make([]uint64, cells)
	for i := range stream {
		stream[i] = uint64(rng.Intn(400))
	}
	cfg := Config{ElemSize: 4, FlushCells: 300}
	var want, got []keys.AggPair
	cfg.Emit = collectPairs(&want)
	feed(newRef(cfg), stream, cfg.ElemSize)
	var agg *Aggregator
	collect := collectPairs(&got)
	cfg.Emit = func(p keys.AggPair) {
		if cap(p.Values) != len(p.Values) {
			errorf("pair %v: cap %d over len %d lets an append reach the next pair", p.Key, cap(p.Values), len(p.Values))
		}
		pooled = pooled || agg.buf.held != nil
		collect(p)
	}
	agg = New(cfg)
	feed(agg, stream, cfg.ElemSize)
	if len(got) != len(want) {
		errorf("%d pairs, reference emits %d", len(got), len(want))
		return pooled
	}
	for i := range want {
		if got[i].Key != want[i].Key || !bytes.Equal(got[i].Values, want[i].Values) {
			errorf("pair %d: %v %x, reference %v %x", i, got[i].Key, got[i].Values, want[i].Key, want[i].Values)
			return pooled
		}
	}
	return pooled
}

// TestLentValuesAcrossPooledTasks: the gather scratch every pair is lent
// from is reused across flushes and, through the pool, across tasks. A task
// of 2 000 cells flushes six times at a threshold of 300; it and the later
// tasks that start on the storage an earlier one released must each lend
// exactly the reference's values during every Emit call.
func TestLentValuesAcrossPooledTasks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randomTask(t.Fatalf, rng, 2000)
	// The pool may drop what it is given (the race detector makes it drop
	// a quarter), so tasks run until two of them started on pooled storage.
	for pooled, task := 0, 0; pooled < 2; task++ {
		if task == 64 {
			t.Fatal("fewer than two of 64 later tasks took their storage from the pool")
		}
		if randomTask(t.Fatalf, rng, 2000) {
			pooled++
		}
	}
}

// TestLentValuesAcrossPooledTasksConcurrently runs the map tasks of four
// workers at once over the one pool: each must lend the reference's values,
// and under the race detector no two of them may share storage.
func TestLentValuesAcrossPooledTasksConcurrently(t *testing.T) {
	const workers, tasks = 4, 8
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for task := range tasks {
				randomTask(func(format string, args ...any) {
					t.Errorf("worker %d task %d: "+format, append([]any{w, task}, args...)...)
				}, rng, 1000)
			}
		}()
	}
	wg.Wait()
}

// TestWarmFlushAllocatesNothing: once a task's storage has grown, a flush
// into an Emit that copies each pair into the receiver's own buffer
// allocates nothing, however many layers the window piles up.
func TestWarmFlushAllocatesNothing(t *testing.T) {
	m := mustMapping(t, "zorder", grid.NewBox(grid.Coord{-1, -1}, []int{34, 34}))
	stream := windowStream(m, grid.NewBox(grid.Coord{0, 0}, []int{8, 32}))
	for _, align := range alignChoices {
		var kept []byte
		agg := New(Config{ElemSize: 4, Align: align, FlushCells: len(stream) + 1, Emit: func(p keys.AggPair) {
			kept = append(kept[:0], p.Values...)
		}})
		var val [4]byte
		task := func() {
			for i, idx := range stream {
				binary.LittleEndian.PutUint32(val[:], uint32(i))
				agg.AddIndex(idx, val[:])
			}
			agg.Flush()
		}
		task() // grows the buffer, the sort scratch, the gather scratch and kept
		if allocs := testing.AllocsPerRun(10, task); allocs != 0 {
			t.Errorf("align %d: %.1f allocations per warm flush, want 0", align, allocs)
		}
	}
}

// TestFlushThresholdIsNotAPreallocation: FlushCells used to size the buffer
// up front, so a query naming a huge threshold asked for terabytes before
// its first cell. It is a threshold; an absurd one means "flush at Close".
func TestFlushThresholdIsNotAPreallocation(t *testing.T) {
	cfg := Config{ElemSize: 4, FlushCells: math.MaxInt, Emit: func(keys.AggPair) {}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	agg := New(cfg)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("New allocated %d bytes for a threshold", got)
	}
	if agg.buf.flushCells != math.MaxUint32 {
		t.Fatalf("effective threshold %d, want what a uint32 ordinal addresses", agg.buf.flushCells)
	}
	// And the default too: a split with few cells pays for few cells.
	runtime.ReadMemStats(&before)
	New(Config{ElemSize: 4, Emit: cfg.Emit})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("New allocated %d bytes at the default threshold", got)
	}

	stream := windowStream(mustMapping(t, "zorder", grid.NewBox(grid.Coord{-1, -1}, []int{34, 34})),
		grid.NewBox(grid.Coord{0, 0}, []int{8, 32}))
	var want, got []keys.AggPair
	ref := newRef(Config{ElemSize: 4, Emit: collectPairs(&want)})
	feed(ref, stream, 4)
	cfg.Emit = collectPairs(&got)
	agg = New(cfg)
	feed(agg, stream, 4)
	assertSamePairs(t, "threshold past every cell", got, agg.Stats(), want, ref.Stats())
}

package predictor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// equivConfigs are the detector parameterizations the differential suite
// sweeps: the paper's defaults, small and large search bounds, every mode,
// aggressive and lazy selection cycles, a settling factor that makes
// eviction/re-admission churn, and fixed sets of four and five strides, the
// widths the inverse's quiet spans run dedicated kernels for. The set of five
// predicts from a run of 2: at the default threshold two strides s and 2s
// tied on a run can only agree (s's run spans the 2s lag), so fewer of the
// kernel's tie-breaks would be visible in the output.
func equivConfigs() []Config {
	return []Config{
		{},
		{MaxStride: 13},
		{MaxStride: 40, SelectionCycle: 32},
		{MaxStride: 25, SelectionCycle: 7, MinActiveFactor: 8},
		{MaxStride: 30, HitRateNum: 1, HitRateDen: 2},
		{MaxStride: 20, RunThreshold: 1},
		{Mode: Exhaustive, MaxStride: 33},
		{Mode: Fixed, Strides: []int{12}},
		{Mode: Fixed, Strides: []int{5, 12, 24}},
		{Mode: Fixed, Strides: []int{1}},
		{Mode: Fixed, Strides: []int{5, 12, 24, 40}},
		{Mode: Fixed, Strides: []int{7, 14, 21, 28, 35}, RunThreshold: 1},
	}
}

// equivStreams are the input shapes: the paper's grid walk, random noise
// (max eviction churn), constant and short-period streams (max fast-path
// residency), a structure change mid-stream, ties between strides, tiny/empty
// edges, and what a reducer decodes, at two record lengths. A stream is a
// list of segments; one transformer is Reset between them, as the codec pool
// reuses it from segment to segment.
func equivStreams() map[string][][]byte {
	rng := rand.New(rand.NewSource(41))
	random := make([]byte, 40<<10)
	rng.Read(random)
	ramp := make([]byte, 8192)
	for i := range ramp {
		ramp[i] = byte(i * 5)
	}
	multi := append([]byte{}, gridWalkStream(10)...)
	multi = append(multi, random[:4096]...)
	multi = append(multi, bytes.Repeat([]byte{3, 1, 4, 1, 5, 9}, 2000)...)
	// regimes switches between periods 7 and 14 every 64 bytes, steps its
	// level every third period and breaks one byte in eight: strides tie on
	// short runs and predict different bytes, so the argmax's order shows.
	regimes := make([]byte, 8192)
	for i := range regimes {
		p := 7 << (i / 64 % 2)
		if i < p || rng.Intn(8) == 0 {
			regimes[i] = byte(rng.Intn(4))
		} else {
			regimes[i] = regimes[i-p] + byte(i/(3*p)%2)
		}
	}
	return map[string][][]byte{
		"grid":      {gridWalkStream(14)},
		"random":    {random},
		"constant":  {bytes.Repeat([]byte{0x42}, 30000)},
		"period4":   {bytes.Repeat([]byte{9, 8, 7, 6}, 8000)},
		"ramp":      {ramp},
		"multi":     {multi},
		"tiny":      {{1, 2, 3}},
		"empty":     {nil},
		"records":   {recordSegment("windspeed1", 0, 328), recordSegment("windspeed1", 1, 48)},
		"records20": {recordSegment("temp1", 2, 200)},
		"regimes":   {regimes},
	}
}

// recordSegment is one fetched map-output segment of the baseline
// sliding-median job for variable name, the stream the inverse transform
// meets in a reducer: IFile records of key length, value length, the Text
// name, two int32 coordinates and an int32 value below 1000, nine values to
// a key. For "windspeed1" a record is 25 bytes and a segment about 74 KB at
// the workload's 328 keys; strides 25, 50, 75 and 100 all fit it, so the
// active set settles on those four plus the stride on probation. A 5-letter
// name makes 20-byte records, and five multiples of 20 fit under the default
// MaxStride.
func recordSegment(name string, g, cells int) []byte {
	head := []byte{byte(1 + len(name) + 8), 4, byte(len(name))}
	rec := append(append(head, name...), make([]byte, 12)...)
	c := len(rec) - 12 // the coordinates' offset
	rng := rand.New(rand.NewSource(int64(g)))
	out := make([]byte, 0, cells*9*len(rec))
	for cell := 0; cell < cells; cell++ {
		binary.BigEndian.PutUint32(rec[c:], uint32(13*g+cell/26))
		binary.BigEndian.PutUint32(rec[c+4:], uint32(5*(cell%26)+g%5))
		for v := 0; v < 9; v++ {
			binary.BigEndian.PutUint32(rec[c+8:], uint32(rng.Intn(1000)))
			out = append(out, rec...)
		}
	}
	return out
}

// diffCheck runs Transformer and Reference over the same segments with the
// same chunking, Reset between segments, and fails on any divergence in
// output bytes or in the state that decides what happens next: the active
// set, each surviving stride's hit accounting, and the predicted-byte count.
func diffCheck(t *testing.T, cfg Config, segs [][]byte, chunks []int) {
	t.Helper()
	fwdFast, fwdRef := NewTransformer(cfg), NewReference(cfg)
	invFast, invRef := NewTransformer(cfg), NewReference(cfg)
	for si, data := range segs {
		if si > 0 {
			fwdFast.Reset()
			fwdRef.Reset()
			invFast.Reset()
			invRef.Reset()
		}
		var resFast, resRef []byte
		eachChunk(data, chunks, func(chunk []byte) {
			resFast = fwdFast.Forward(resFast, chunk)
			resRef = fwdRef.Forward(resRef, chunk)
		})
		sameBytes(t, "Forward", cfg, resFast, resRef)
		sameState(t, "Forward", cfg, fwdFast, fwdRef)

		var backFast, backRef []byte
		eachChunk(resRef, chunks, func(chunk []byte) {
			backFast = invFast.Inverse(backFast, chunk)
			backRef = invRef.Inverse(backRef, chunk)
		})
		if !bytes.Equal(backRef, data) {
			t.Fatalf("reference Inverse failed to reconstruct (cfg %+v)", cfg)
		}
		sameBytes(t, "Inverse", cfg, backFast, backRef)
		sameState(t, "Inverse", cfg, invFast, invRef)
	}
}

// eachChunk feeds data to fn in pieces whose sizes cycle through chunks
// (nil: the whole of it at once).
func eachChunk(data []byte, chunks []int, fn func(chunk []byte)) {
	for off, ci := 0, 0; off < len(data); ci++ {
		n := len(data) - off
		if len(chunks) > 0 {
			n = min(n, chunks[ci%len(chunks)])
		}
		fn(data[off : off+n])
		off += n
	}
}

func sameBytes(t *testing.T, dir string, cfg Config, got, want []byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s length mismatch: %d vs %d (cfg %+v)", dir, len(got), len(want), cfg)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s diverges at byte %d/%d: got %#x want %#x (cfg %+v)",
				dir, i, len(want), got[i], want[i], cfg)
		}
	}
}

func sameState(t *testing.T, dir string, cfg Config, fast *Transformer, ref *Reference) {
	t.Helper()
	got := make([]strideCounters, 0, len(fast.actives))
	for _, si := range fast.actives {
		st := &fast.strides[si]
		got = append(got, strideCounters{int(st.stride), st.hits, st.total})
	}
	if want := ref.counters(); !slices.Equal(got, want) {
		t.Fatalf("active strides {stride hits total} diverge after %s:\n got %v\nwant %v\n(cfg %+v)", dir, got, want, cfg)
	}
	if got, want := fast.Stats().PredictedBytes, ref.predicted; got != want {
		t.Fatalf("predicted bytes after %s: got %d want %d (cfg %+v)", dir, got, want, cfg)
	}
}

// TestEquivalenceTable sweeps configs × streams × chunkings.
func TestEquivalenceTable(t *testing.T) {
	chunkings := [][]int{
		nil,            // whole stream at once
		{1},            // byte at a time
		{7, 256, 3, 1}, // ragged, straddling cycle boundaries
		{4096},         // as the IFile Writer writes its blocks
	}
	for name, segs := range equivStreams() {
		for _, cfg := range equivConfigs() {
			sweep := chunkings
			if name == "records" || name == "records20" {
				sweep = chunkings[3:]
			}
			if name == "records" || name == "records20" || name == "random" {
				sweep = append(sweep[:len(sweep):len(sweep)], eventChunkings(cfg)...)
			}
			for _, chunks := range sweep {
				diffCheck(t, cfg, segs, chunks)
			}
		}
	}
}

// eventChunkings cuts a stream where the inverse's quiet spans end: a chunk
// that stops one byte short of a selection-cycle boundary, on it, and one
// byte past it; and, since a stride q admitted on a boundary can be evicted
// 2q bytes later, chunks that stop one byte either side of that horizon.
// Only an adaptive transformer has such events.
func eventChunkings(cfg Config) [][]int {
	cfg = cfg.withDefaults()
	if cfg.Mode != Adaptive {
		return nil
	}
	c := cfg.SelectionCycle
	out := [][]int{{c - 1, c + 1}, {c + 1, c - 1}}
	for _, q := range []int{3, 12} {
		if h := cfg.MinActiveFactor * q; h+1 < c {
			out = append(out, []int{h - 1, 2, c - h - 1})
		}
	}
	return out
}

// TestEquivalenceCoversKernelWidths checks that the differential streams
// drive the inverse's width kernels, so TestEquivalenceTable holds them to
// the reference: it samples the active set at every 4 KiB chunk end of every
// stream under every config and requires sets of four and of five strides,
// each both in ascending order and, after a re-admission, out of it (the
// kernels see the set in active-set order, which the argmax's tie-break
// follows).
func TestEquivalenceCoversKernelWidths(t *testing.T) {
	seen := map[string][]int{}
	for name, segs := range equivStreams() {
		for _, cfg := range equivConfigs() {
			fwd, inv := NewTransformer(cfg), NewTransformer(cfg)
			for _, data := range segs {
				fwd.Reset()
				inv.Reset()
				eachChunk(fwd.Forward(nil, data), []int{4096}, func(chunk []byte) {
					inv.Inverse(nil, chunk)
					set := inv.ActiveStrides()
					if n := len(set); n == 4 || n == 5 {
						key := fmt.Sprintf("%d strides, ascending %v", n, slices.IsSorted(set))
						if seen[key] == nil {
							seen[key] = set
							t.Logf("%s: %v (%s, %+v)", key, set, name, cfg)
						}
					}
				})
			}
		}
	}
	for _, n := range []int{4, 5} {
		for _, asc := range []bool{true, false} {
			if key := fmt.Sprintf("%d strides, ascending %v", n, asc); seen[key] == nil {
				t.Errorf("no stream reaches an active set of %s at a chunk end", key)
			}
		}
	}
}

// TestEquivalenceResetReuse checks that a Reset transformer replays exactly
// like a fresh reference — the codec pool reuses transformers this way.
func TestEquivalenceResetReuse(t *testing.T) {
	data := gridWalkStream(12)
	for _, cfg := range equivConfigs() {
		fast := NewTransformer(cfg)
		// Dirty the state with an unrelated stream, then Reset.
		fast.Forward(nil, bytes.Repeat([]byte{1, 2, 250}, 4000))
		fast.Reset()
		got := fast.Forward(nil, data)
		want := NewReference(cfg).Forward(nil, data)
		if !bytes.Equal(got, want) {
			t.Fatalf("post-Reset Forward diverges from fresh reference (cfg %+v)", cfg)
		}
		fast.Reset()
		back := fast.Inverse(nil, want)
		if !bytes.Equal(back, data) {
			t.Fatalf("post-Reset Inverse failed (cfg %+v)", cfg)
		}
	}
}

// TestEquivalenceLongAdaptive runs a long adaptive stream whose structure
// shifts, forcing many evictions, re-admissions, and fast-path entry/exit
// transitions.
func TestEquivalenceLongAdaptive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var data []byte
	for block := 0; block < 12; block++ {
		switch block % 3 {
		case 0:
			data = append(data, gridWalkStream(8)...)
		case 1:
			chunk := make([]byte, 10000)
			rng.Read(chunk)
			data = append(data, chunk...)
		case 2:
			unit := make([]byte, 17)
			copy(unit, "varname_")
			for i := 0; i < 1200; i++ {
				unit[15] = byte(i >> 8)
				unit[16] = byte(i)
				data = append(data, unit...)
			}
		}
	}
	for _, cfg := range []Config{{}, {MaxStride: 50, SelectionCycle: 64}, {MaxStride: 34, MinActiveFactor: 8}} {
		diffCheck(t, cfg, [][]byte{data}, []int{5000, 1, 997})
	}
}

// FuzzEquivalence drives arbitrary streams, parameters, and chunk sizes
// through both implementations, in both directions: residuals and
// reconstructions must match the reference byte for byte, chunk for chunk,
// and leave the same counters behind.
func FuzzEquivalence(f *testing.F) {
	f.Add([]byte("windspeed1windspeed1windspeed1"), 10, 3, 16, 0, 64)
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3}, 4, 1, 8, 1, 3)
	f.Add([]byte{}, 1, 2, 256, 2, 1)
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5}, 400), 30, 2, 32, 0, 2000)
	f.Add(recordSegment("windspeed1", 0, 2), 48, 2, 256, 0, 4096)
	f.Add(recordSegment("temp1", 2, 2), 48, 2, 256, 0, 4096)
	f.Fuzz(func(t *testing.T, data []byte, maxStride, runThreshold, cycle, mode, chunk int) {
		if maxStride < 1 || maxStride > 48 || runThreshold < 1 || runThreshold > 8 {
			t.Skip()
		}
		if cycle < 1 || cycle > 512 || chunk < 1 {
			t.Skip()
		}
		cfg := Config{
			MaxStride:      maxStride,
			RunThreshold:   runThreshold,
			SelectionCycle: cycle,
		}
		switch mode % 3 {
		case 1:
			cfg.Mode = Exhaustive
		case 2:
			cfg.Mode = Fixed
			cfg.Strides = []int{1 + maxStride/3, maxStride}
		}
		diffCheck(t, cfg, [][]byte{data}, []int{chunk})
	})
}

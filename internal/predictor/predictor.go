// Package predictor implements the semantically-informed byte-level
// transform of Section III: a streaming predictive coder that detects
// linear byte sequences in serialized key streams and replaces each byte
// with the delta from its prediction, making the result far more
// compressible by a generic codec (gzip/bzip2).
//
// A sequence is defined by a stride s and phase φ (= byte offset mod s) and
// carries a difference δ, meaning x[φ+ks] = x[φ+(k-1)s] + δ for most k
// (equation 1). For each incoming byte the coder consults the sequences of
// the strides in the *active set*, picks the one with the longest run
// length, and — if that run exceeds a threshold — predicts
//
//	x̂[i] = x[i-s] + δ        (equation 2)
//
// emitting y[i] = x[i] - x̂[i] (equation 3, byte arithmetic mod 256). The
// inverse transform replays the identical decision procedure against the
// reconstructed stream (equation 4), so no side information is needed.
//
// Active-set management (Section III-A): all strides up to MaxStride start
// active; a stride whose hit rate falls below HitRateNum/HitRateDen after
// being active for at least 2s bytes is evicted; every SelectionCycle bytes
// one evicted stride is re-admitted, preferring those out of the set the
// longest, with a stride of s eligible only once every s cycles.
//
// # Implementation
//
// Transformer is the production kernel. It is byte-for-byte equivalent to
// the scalar algorithm retained in reference.go (the oracle the
// differential tests and FuzzEquivalence check against) but restructured
// for throughput:
//
//   - Per-stride state lives in flat, index-addressed slices (one shared
//     delta array and one shared run array, offset per stride) instead of
//     per-stride heap objects, killing the pointer chase in the hot loops.
//
//   - Eviction is amortized: from the current counters of each active
//     stride an exact lower bound on the first position at which the
//     eviction predicate could possibly hold (assuming worst-case misses)
//     is maintained, and the per-byte eviction sweep is skipped until that
//     horizon. In steady state the horizon sits many thousands of bytes
//     out, so the sweep effectively runs at selection-cycle granularity
//     instead of per byte — with identical results, since the predicate
//     provably cannot fire in between.
//
//   - Forward processes warm streams in batches by loop interchange:
//     instead of visiting every active stride for each byte, it visits
//     every byte for each active stride, keeping one stride's sequence
//     table hot in cache across a whole batch. A per-byte best-run/best-
//     prediction table reproduces the reference's argmax (same iteration
//     order, same strict-greater tie-break), and per-stride eviction is
//     simulated at the exact byte it would fire. Batches stop at selection-
//     cycle boundaries so admissions happen at the same positions as the
//     reference.
//
//   - Inverse cannot be loop-interchanged (each reconstructed byte is
//     history the next byte's prediction may need), so it goes byte by byte
//     — but not event by event. The active set can change at two kinds of
//     position only, a selection-cycle boundary and the eviction horizon
//     above; Inverse cuts the stream into the quiet spans between them and,
//     inside one, runs a loop that carries no active-set bookkeeping at
//     all: history linearised so a stride's previous byte is one index
//     away, each stride's table cursor and hit count in a compact scratch
//     (in locals, for the sets of four and five strides a reducer's record
//     stream keeps), the update for one byte fused with the prediction for
//     the next. The events run once per span, through the code the scalar
//     path uses.
//
//   - Re-admission takes the head of a queue of evicted strides ordered by
//     eviction cycle and index, the reference's longest-out order and
//     tie-break, instead of scanning the full stride set every cycle.
package predictor

import "fmt"

// Mode selects the stride-detection strategy.
type Mode int

const (
	// Adaptive is the paper's algorithm: dynamic active set.
	Adaptive Mode = iota
	// Exhaustive keeps every stride active forever (the "brute force"
	// baseline that is 4x slower at MaxStride 100 and 17x at 1000).
	Exhaustive
	// Fixed restricts detection to an explicit stride list (the
	// user-specified alternative discussed in Section III).
	Fixed
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Adaptive:
		return "adaptive"
	case Exhaustive:
		return "exhaustive"
	case Fixed:
		return "fixed"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Config parameterizes a Transformer. The zero value is completed by
// Default values matching the paper's implementation.
type Config struct {
	// Mode selects adaptive, exhaustive, or fixed-stride detection.
	Mode Mode
	// MaxStride bounds the stride search (full set = 1..MaxStride).
	// Default 100.
	MaxStride int
	// Strides lists the strides for Fixed mode.
	Strides []int
	// RunThreshold is the run length a sequence must exceed before its
	// prediction is used. Default 2.
	RunThreshold int
	// HitRateNum/HitRateDen is the eviction threshold. Default 5/6.
	HitRateNum, HitRateDen int
	// MinActiveFactor: a stride s must be active for at least
	// MinActiveFactor*s bytes before it can be evicted, letting its hit
	// rate settle. Default 2 (the paper's "2s requirement", which it notes
	// is tunable). Caveat: a re-admitted stride spends its first s bytes
	// relearning deltas, so at 2s its hit rate tops out near 1/2 — below
	// the 5/6 eviction threshold — and it is evicted again. Streams whose
	// structure changes mid-flight (multiple variables with different
	// shapes, Section III) re-adapt much better with a factor of 8+; see
	// the A7 ablation.
	MinActiveFactor int
	// SelectionCycle is the number of bytes between re-admissions of
	// evicted strides. Default 256.
	SelectionCycle int
}

func (c Config) withDefaults() Config {
	if c.MaxStride == 0 {
		c.MaxStride = 100
	}
	if c.RunThreshold == 0 {
		c.RunThreshold = 2
	}
	if c.HitRateNum == 0 || c.HitRateDen == 0 {
		c.HitRateNum, c.HitRateDen = 5, 6
	}
	if c.MinActiveFactor == 0 {
		c.MinActiveFactor = 2
	}
	if c.SelectionCycle == 0 {
		c.SelectionCycle = 256
	}
	if c.Mode == Fixed {
		maxS := 0
		for _, s := range c.Strides {
			if s <= 0 {
				panic(fmt.Sprintf("predictor: non-positive stride %d", s))
			}
			if s > maxS {
				maxS = s
			}
		}
		if maxS == 0 {
			panic("predictor: Fixed mode requires strides")
		}
		c.MaxStride = maxS
	}
	if c.MaxStride < 1 {
		panic("predictor: MaxStride must be >= 1")
	}
	return c
}

// batchCap bounds one forward batch, and with it the per-byte scratch
// tables. Adaptive batches are already capped by the selection cycle; this
// bound only matters for Fixed/Exhaustive streams.
const batchCap = 1 << 12

// strideState is one stride of the full set. Sequence tables live outside
// the struct, in the Transformer's flat delta/run arrays at [seqOff,
// seqOff+stride).
type strideState struct {
	stride int32
	// phase is pos mod stride and back is (pos - stride) mod MaxStride,
	// maintained incrementally while the stride is active (recomputed on
	// admission) so the hot loops avoid division.
	phase int32
	back  int32
	// seqOff is this stride's base index into the shared deltas/runs.
	seqOff int32
	active bool
	// activatedAt is the byte index at which the stride (re)entered the
	// active set; hit accounting restarts there.
	activatedAt int64
	hits, total int64
	// evictedAtCycle is the selection cycle at which the stride left the
	// active set (for longest-out priority).
	evictedAtCycle int64
	// lastSelectedCycle enforces the once-every-s-cycles eligibility rule.
	lastSelectedCycle int64
}

// Transformer applies the forward or inverse transform. A single instance
// must be used for one direction on one stream; it is not safe for
// concurrent use.
type Transformer struct {
	cfg     Config
	strides []strideState
	// deltas/runs hold every stride's per-phase sequence state, flattened:
	// stride i's phase p lives at strides[i].seqOff+p.
	deltas  []byte
	runs    []int32
	actives []int32 // indices into strides; current active set, dense
	window  []byte  // ring buffer of the last MaxStride original bytes
	wpos    int     // ring index of the most recently written byte
	pos     int64   // bytes processed
	cycle   int64   // selection cycles elapsed
	// evicted is the admission queue: the strides out of the active set,
	// ordered by (evictedAtCycle, index), the reference's longest-out order
	// and lowest-index tie-break.
	evicted []int32
	// evictCheckAt is an exact lower bound on the next position at which
	// any active stride could satisfy the eviction predicate; the scalar
	// path skips the eviction sweep until pos reaches it.
	evictCheckAt int64
	// Telemetry counters (see Stats). All are maintained on cold paths —
	// eviction, admission, and the batch emit loop — never per byte per
	// stride.
	evictions  int64
	admissions int64
	predicted  int64
	// bestRun/bestPred are the forward batch's per-byte argmax scratch.
	bestRun  []int32
	bestPred []byte
	// lin/span are the inverse span's scratch: MaxStride bytes of history
	// followed by the span's reconstructed bytes, and the active strides'
	// hoisted cursors.
	lin  []byte
	span []spanStride
}

// NewTransformer returns a Transformer for cfg (zero-value fields take the
// paper's defaults).
func NewTransformer(cfg Config) *Transformer {
	cfg = cfg.withDefaults()
	t := &Transformer{cfg: cfg, window: make([]byte, cfg.MaxStride), wpos: cfg.MaxStride - 1}
	inFixed := func(s int) bool {
		for _, f := range cfg.Strides {
			if f == s {
				return true
			}
		}
		return false
	}
	off := int32(0)
	for s := 1; s <= cfg.MaxStride; s++ {
		if cfg.Mode == Fixed && !inFixed(s) {
			continue
		}
		t.strides = append(t.strides, strideState{
			stride:            int32(s),
			seqOff:            off,
			active:            true,
			back:              int32((cfg.MaxStride - s) % cfg.MaxStride),
			lastSelectedCycle: -int64(s), // immediately eligible
		})
		off += int32(s)
		t.actives = append(t.actives, int32(len(t.strides)-1))
	}
	t.deltas = make([]byte, off)
	t.runs = make([]int32, off)
	t.evicted = make([]int32, 0, len(t.strides))
	t.updateEvictHorizon()
	return t
}

// Reset returns the transformer to its initial state for a new stream.
func (t *Transformer) Reset() {
	t.pos = 0
	t.cycle = 0
	t.wpos = t.cfg.MaxStride - 1
	t.actives = t.actives[:0]
	t.evicted = t.evicted[:0]
	for i := range t.strides {
		st := &t.strides[i]
		st.active = true
		st.activatedAt = 0
		st.hits, st.total = 0, 0
		st.phase = 0
		st.back = int32((t.cfg.MaxStride - int(st.stride)) % t.cfg.MaxStride)
		st.evictedAtCycle = 0
		st.lastSelectedCycle = -int64(st.stride)
		t.actives = append(t.actives, int32(i))
	}
	for i := range t.deltas {
		t.deltas[i] = 0
	}
	for i := range t.runs {
		t.runs[i] = 0
	}
	for i := range t.window {
		t.window[i] = 0
	}
	t.evictions, t.admissions, t.predicted = 0, 0, 0
	t.updateEvictHorizon()
}

// predict returns the predicted value for the next byte and whether a
// prediction is made. It must be called before step records the byte.
func (t *Transformer) predict() (byte, bool) {
	bestIdx := int32(-1)
	var bestRun int32 = -1
	for _, si := range t.actives {
		st := &t.strides[si]
		if t.pos < int64(st.stride) {
			continue
		}
		if r := t.runs[st.seqOff+st.phase]; r > bestRun {
			bestRun = r
			bestIdx = si
		}
	}
	if bestIdx < 0 || bestRun <= int32(t.cfg.RunThreshold) {
		return 0, false
	}
	st := &t.strides[bestIdx]
	return t.window[st.back] + t.deltas[st.seqOff+st.phase], true
}

// step records original byte x at the current position, updating sequence
// tables, hit rates, the active set, and the history window.
func (t *Transformer) step(x byte) {
	max := int32(t.cfg.MaxStride)
	for _, si := range t.actives {
		st := &t.strides[si]
		if t.pos >= int64(st.stride) {
			d := x - t.window[st.back]
			e := st.seqOff + st.phase
			if d == t.deltas[e] {
				t.runs[e]++
				st.hits++
			} else {
				t.deltas[e] = d
				t.runs[e] = 0
			}
			st.total++
		}
		if st.phase++; st.phase == st.stride {
			st.phase = 0
		}
		if st.back++; st.back == max {
			st.back = 0
		}
	}
	if t.wpos++; t.wpos == t.cfg.MaxStride {
		t.wpos = 0
	}
	t.window[t.wpos] = x
	t.pos++

	if t.cfg.Mode == Adaptive {
		t.settle()
	}
}

// settle runs the two active-set events that can be due at the current
// position: the eviction sweep once pos has reached the horizon, and the
// selection cycle's admission on a cycle boundary. Between two such
// positions the active set cannot change.
func (t *Transformer) settle() {
	if t.pos >= t.evictCheckAt {
		t.evictSweep()
	}
	if t.pos%int64(t.cfg.SelectionCycle) == 0 {
		t.cycle++
		t.admit()
		t.updateEvictHorizon()
	}
}

// evictSweep removes active strides whose hit rate has fallen below the
// threshold after the settling period, then re-derives the horizon.
func (t *Transformer) evictSweep() {
	num, den := int64(t.cfg.HitRateNum), int64(t.cfg.HitRateDen)
	factor := int64(t.cfg.MinActiveFactor)
	kept := t.actives[:0]
	for _, si := range t.actives {
		st := &t.strides[si]
		if t.pos-st.activatedAt >= factor*int64(st.stride) &&
			st.total > 0 &&
			st.hits*den < st.total*num {
			t.evict(si)
			continue
		}
		kept = append(kept, si)
	}
	t.actives = kept
	t.updateEvictHorizon()
}

// evict files stride si, just taken out of the active set, at the tail of
// the admission queue. Strides leave in cycle order, so only the entries
// evicted in this same cycle can follow it, those of a higher index.
func (t *Transformer) evict(si int32) {
	t.strides[si].active = false
	t.strides[si].evictedAtCycle = t.cycle
	t.evictions++
	q := append(t.evicted, si)
	k := len(q) - 1
	for ; k > 0 && q[k-1] > si && t.strides[q[k-1]].evictedAtCycle == t.cycle; k-- {
		q[k] = q[k-1]
	}
	q[k] = si
	t.evicted = q
}

// evictBound returns the smallest k >= 1 such that st could possibly
// satisfy the eviction predicate after processing k more bytes from the
// current position, assuming the worst case (every future byte a miss).
// Until pos+k the predicate provably cannot hold, so eviction checks may be
// skipped — this is what amortizes the reference's per-byte evict() without
// changing a single decision.
func (t *Transformer) evictBound(st *strideState) int64 {
	num, den := int64(t.cfg.HitRateNum), int64(t.cfg.HitRateDen)
	s := int64(st.stride)
	k := int64(t.cfg.MinActiveFactor)*s - (t.pos - st.activatedAt)
	// Counter bound: eviction needs hits*den < total'*num, i.e. total' must
	// reach floor(hits*den/num)+1; each future byte adds one to total once
	// the stride is warm (pos >= stride).
	if needT := st.hits*den/num + 1 - st.total; needT > 0 {
		kc := needT
		if t.pos < s {
			kc += s - t.pos // the first s-pos bytes don't update counters
		}
		if kc > k {
			k = kc
		}
	}
	if k < 1 {
		k = 1
	}
	return k
}

// updateEvictHorizon recomputes evictCheckAt from the active set's current
// counters.
func (t *Transformer) updateEvictHorizon() {
	if t.cfg.Mode != Adaptive {
		t.evictCheckAt = int64(^uint64(0) >> 1) // never
		return
	}
	next := int64(^uint64(0) >> 1)
	for _, si := range t.actives {
		if h := t.pos + t.evictBound(&t.strides[si]); h < next {
			next = h
		}
	}
	t.evictCheckAt = next
}

// admit re-adds the evicted stride that has been out the longest among
// those eligible this cycle: the first eligible entry of the admission
// queue.
func (t *Transformer) admit() {
	for k, si := range t.evicted {
		st := &t.strides[si]
		if t.cycle-st.lastSelectedCycle < int64(st.stride) {
			continue
		}
		t.evicted = append(t.evicted[:k], t.evicted[k+1:]...)
		st.active = true
		st.activatedAt = t.pos
		st.hits, st.total = 0, 0
		t.admissions++
		// Recompute the incremental indices the stride missed while evicted.
		max := int64(t.cfg.MaxStride)
		st.phase = int32(t.pos % int64(st.stride))
		st.back = int32(((t.pos-int64(st.stride))%max + max) % max)
		st.lastSelectedCycle = t.cycle
		t.actives = append(t.actives, si)
		return
	}
}

// Forward transforms original bytes src, appending the residual stream to
// dst and returning it. Chunks may be fed incrementally; state carries
// across calls.
//
// Once the stream is warm (pos >= MaxStride) bytes travel the batched
// stride-major fast path; the scalar path only covers the warmup prefix.
func (t *Transformer) Forward(dst, src []byte) []byte {
	i := 0
	for i < len(src) {
		if n := t.forwardBatch(&dst, src, i); n > 0 {
			i += n
			continue
		}
		x := src[i]
		if p, ok := t.predict(); ok {
			dst = append(dst, x-p)
			t.predicted++
		} else {
			dst = append(dst, x)
		}
		t.step(x)
		i++
	}
	return dst
}

// forwardBatch processes up to batchCap bytes of src[i:] stride-major and
// returns how many bytes it consumed (0 when the stream is still warming
// up). The batch never crosses a selection-cycle boundary, so admissions
// happen at exactly the reference's positions; per-stride eviction is
// simulated at the exact byte the reference would evict.
func (t *Transformer) forwardBatch(dst *[]byte, src []byte, i int) int {
	maxS := t.cfg.MaxStride
	if t.pos < int64(maxS) {
		return 0
	}
	L := len(src) - i
	adaptive := t.cfg.Mode == Adaptive
	if adaptive {
		if tb := t.cfg.SelectionCycle - int(t.pos%int64(t.cfg.SelectionCycle)); tb < L {
			L = tb
		}
	}
	if L > batchCap {
		L = batchCap
	}
	if cap(t.bestRun) < L {
		t.bestRun = make([]int32, L)
		t.bestPred = make([]byte, L)
	}
	bestRun := t.bestRun[:L]
	bestPred := t.bestPred[:L]
	for j := range bestRun {
		bestRun[j] = -1
	}

	evicted := false
	b := src[i : i+L]
	runs, deltas, window := t.runs, t.deltas, t.window
	for _, si := range t.actives {
		st := &t.strides[si]
		// evictFrom is the first batch byte index at which the eviction
		// predicate could fire (exact lower bound); when it lies inside the
		// batch the stride takes the byte-major path that simulates
		// eviction at the exact byte, otherwise no check is needed at all.
		evictFrom := L
		if adaptive {
			if k := t.evictBound(st); k <= int64(L) {
				evictFrom = int(k) - 1
			}
		}
		if evictFrom < L {
			if t.forwardStrideEvictable(st, b, bestRun, bestPred, evictFrom) {
				t.evict(si)
				evicted = true
			}
			continue
		}
		s := int(st.stride)
		off := int(st.seqOff)
		ph := int(st.phase)
		back := int(st.back)
		hits := 0
		// Phase-major: each (stride, phase) sequence entry is visited at
		// batch offsets r, r+s, r+2s, … — walking one phase at a time
		// keeps its run and delta in registers. The first visit still
		// predates the batch's own bytes, so it reads the history ring;
		// later visits read src directly.
		for r := 0; r < s && r < L; r++ {
			q := ph + r
			if q >= s {
				q -= s
			}
			e := off + q
			run := runs[e]
			delta := deltas[e]
			wb := back + r
			if wb >= maxS {
				wb -= maxS
			}
			prev := window[wb]
			cur := b[r]
			if run > bestRun[r] {
				bestRun[r] = run
				bestPred[r] = prev + delta
			}
			if cur-prev == delta {
				run++
				hits++
			} else {
				delta = cur - prev
				run = 0
			}
			for j := r + s; j < L; j += s {
				prev = b[j-s]
				cur = b[j]
				if run > bestRun[j] {
					bestRun[j] = run
					bestPred[j] = prev + delta
				}
				if cur-prev == delta {
					run++
					hits++
				} else {
					delta = cur - prev
					run = 0
				}
			}
			runs[e] = run
			deltas[e] = delta
		}
		st.hits += int64(hits)
		st.total += int64(L)
		st.phase = int32((ph + L) % s)
		st.back = int32((back + L) % maxS)
	}
	if evicted {
		kept := t.actives[:0]
		for _, si := range t.actives {
			if t.strides[si].active {
				kept = append(kept, si)
			}
		}
		t.actives = kept
	}

	// Emit the residuals from the per-byte argmax. bestRun == -1 marks "no
	// active stride" and must never predict, so the threshold is clamped to
	// at least -1 (matching the reference's best == nil guard even for
	// pathological negative RunThresholds).
	thr := int32(t.cfg.RunThreshold)
	if thr < -1 {
		thr = -1
	}
	n := len(*dst)
	out := append(*dst, src[i:i+L]...)
	o := out[n : n+L]
	predicted := int64(0)
	for j := 0; j < L; j++ {
		if bestRun[j] > thr {
			o[j] -= bestPred[j]
			predicted++
		}
	}
	t.predicted += predicted
	*dst = out

	t.pushHistory(b)

	if adaptive {
		if t.pos%int64(t.cfg.SelectionCycle) == 0 {
			t.cycle++
			t.admit()
		}
		t.updateEvictHorizon()
	}
	return L
}

// forwardStrideEvictable is the byte-major fallback for a stride whose
// eviction horizon lies inside the current batch: it replays the batch one
// byte at a time so the eviction predicate fires at exactly the byte the
// reference would evict at. From evictFrom on, the settling clause already
// holds (evictBound guarantees it), so only the counter clause is tested.
// Returns whether the stride is to be evicted.
func (t *Transformer) forwardStrideEvictable(st *strideState, b []byte, bestRun []int32, bestPred []byte, evictFrom int) bool {
	maxS := t.cfg.MaxStride
	num, den := int64(t.cfg.HitRateNum), int64(t.cfg.HitRateDen)
	s := int(st.stride)
	off := int(st.seqOff)
	ph := int(st.phase)
	back := int(st.back)
	hits, total := st.hits, st.total
	evicted := false
	for j := 0; j < len(b); j++ {
		var prev byte
		if j >= s {
			prev = b[j-s]
		} else {
			prev = t.window[back]
		}
		e := off + ph
		if r := t.runs[e]; r > bestRun[j] {
			bestRun[j] = r
			bestPred[j] = prev + t.deltas[e]
		}
		if d := b[j] - prev; d == t.deltas[e] {
			t.runs[e]++
			hits++
		} else {
			t.deltas[e] = d
			t.runs[e] = 0
		}
		total++
		if ph++; ph == s {
			ph = 0
		}
		if back++; back == maxS {
			back = 0
		}
		if j >= evictFrom && hits*den < total*num {
			evicted = true
			break
		}
	}
	st.phase = int32(ph)
	st.back = int32(back)
	st.hits, st.total = hits, total
	return evicted
}

// Inverse reconstructs original bytes from residual bytes src, appending to
// dst. It replays exactly the decision procedure of Forward against the
// reconstructed history, so a fresh Transformer with the same Config
// inverts any Forward stream.
//
// Each reconstructed byte is history the next byte's prediction may need, so
// the forward batch's stride-major interchange does not apply; a warm stream
// is instead cut into quiet spans (see inverseSpan), inside which the per-byte
// loop carries no active-set bookkeeping. The scalar predict/step pair covers
// the warm-up prefix and spans too short to be worth hoisting.
func (t *Transformer) Inverse(dst, src []byte) []byte {
	for len(src) > 0 {
		if n := t.inverseSpan(&dst, src); n > 0 {
			src = src[n:]
			continue
		}
		x := src[0]
		if p, ok := t.predict(); ok {
			x += p
			t.predicted++
		}
		dst = append(dst, x)
		t.step(x)
		src = src[1:]
	}
	return dst
}

// minSpan is the shortest quiet span worth hoisting for: below it the copy
// of MaxStride history bytes and of the active strides' cursors costs more
// than the scalar path's per-byte bookkeeping.
const minSpan = 8

// spanStride is one active stride's table cursor, hoisted out of its
// strideState for the length of a quiet span: e walks the stride's sequence
// entries [lo, hi) in place of phase, and q is what the stride predicts for
// the byte about to be reconstructed.
type spanStride struct {
	e, lo, hi int32
	stride    int32
	hits      int32
	q         byte
}

// inverseSpan reconstructs the longest quiet span at the head of src and
// returns its length, or 0 when the stream is still warming up or the span is
// shorter than minSpan. A quiet span ends at the next selection-cycle
// boundary or at the eviction horizon, whichever comes first: admission
// happens only on the former, and evictBound proves the eviction predicate
// cannot hold before the latter, so between the two the active set is fixed
// and every stride is warm. That makes everything step and predict re-derive
// per byte a loop invariant. The history ring is linearised into lin so a
// stride's previous byte is lin[p-stride] with no wrapping cursor, each
// stride's table cursor and hit count live in a compact scratch, and the
// events themselves run once, after the span, through the same settle step
// uses.
//
// The per-byte loop is fused across bytes: one walk of the scratch records
// byte j in each stride's sequence entry and then reads that stride's next
// entry to predict byte j+1. A stride's entries are its own, so its
// prediction depends on no other stride's update, and the argmax keeps the
// reference's order and strict-greater tie-break. A set of exactly four or
// five strides — on a reducer's stream of records, the record's stride and
// its multiples, with or without the stride on probation, which is nearly
// every byte — runs the same loop unrolled with every cursor in a local
// (inverseQuiet4, inverseQuiet5); any other width walks the scratch.
func (t *Transformer) inverseSpan(dst *[]byte, src []byte) int {
	maxS := t.cfg.MaxStride
	if t.pos < int64(maxS) {
		return 0
	}
	L := min(len(src), batchCap)
	adaptive := t.cfg.Mode == Adaptive
	if adaptive {
		cyc := int64(t.cfg.SelectionCycle)
		L = int(min(int64(L), cyc-t.pos%cyc, t.evictCheckAt-t.pos))
	}
	if L < minSpan {
		return 0
	}

	if t.lin == nil {
		longest := batchCap
		if adaptive {
			longest = min(longest, t.cfg.SelectionCycle)
		}
		t.lin = make([]byte, maxS+longest)
		t.span = make([]spanStride, 0, len(t.strides))
	}
	lin := t.lin[:maxS+L]
	n := copy(lin, t.window[t.wpos+1:])
	copy(lin[n:], t.window[:t.wpos+1])

	span := t.span[:0]
	for _, si := range t.actives {
		st := &t.strides[si]
		span = append(span, spanStride{e: st.seqOff + st.phase, lo: st.seqOff, hi: st.seqOff + st.stride, stride: st.stride})
	}
	// -1 is "no active stride" and must never predict (see forwardBatch).
	thr := max(int32(t.cfg.RunThreshold), -1)
	var predicted int
	switch len(span) {
	case 4:
		predicted = inverseQuiet4(lin, src[:L], span, t.runs, t.deltas, thr)
	case 5:
		predicted = inverseQuiet5(lin, src[:L], span, t.runs, t.deltas, thr)
	default:
		predicted = inverseQuiet(lin, src[:L], span, t.runs, t.deltas, thr)
	}

	for k, si := range t.actives {
		st := &t.strides[si]
		st.phase = span[k].e - span[k].lo
		st.back = int32((int(st.back) + L) % maxS)
		st.hits += int64(span[k].hits)
		st.total += int64(L)
	}
	t.predicted += int64(predicted)
	*dst = append(*dst, lin[maxS:]...)
	t.pushHistory(lin[maxS:])
	if adaptive {
		t.settle()
	}
	return L
}

// inverseQuiet is inverseSpan's per-byte loop, kept in a function of its own
// so its few live values stay in registers: it reconstructs src into the
// tail of lin (whose head is the history before the span) against a fixed
// set of strides and returns how many bytes were predicted.
func inverseQuiet(lin, src []byte, span []spanStride, runs []int32, deltas []byte, thr int32) (predicted int) {
	base := len(lin) - len(src)
	deltas = deltas[:len(runs)] // one bounds check per entry, not two
	bestRun, pred := int32(-1), byte(0)
	for k := range span {
		s := &span[k]
		s.q = lin[base-int(s.stride)] + deltas[s.e]
		if r := runs[s.e]; r > bestRun {
			bestRun, pred = r, s.q
		}
	}
	for j, x := range src {
		if bestRun > thr {
			x += pred
			predicted++
		}
		lin[base+j] = x
		// hist ends with x: the next byte's history. The last round predicts
		// the byte after the span; settle may change the active set before
		// that byte arrives, so that prediction is dropped.
		hist := lin[:base+j+1]
		bestRun = -1
		for k := range span {
			s := &span[k]
			e := s.e
			// x - prev == delta exactly when x is what the stride predicted;
			// on a miss the new delta x - prev is the old one plus x - q.
			if x == s.q {
				runs[e]++
				s.hits++
			} else {
				deltas[e] += x - s.q
				runs[e] = 0
			}
			if e++; e == s.hi {
				e = s.lo
			}
			s.e = e
			s.q = hist[len(hist)-int(s.stride)] + deltas[e]
			if r := runs[e]; r > bestRun {
				bestRun, pred = r, s.q
			}
		}
	}
	return predicted
}

// inverseQuiet4 is inverseQuiet for a span of exactly four active strides —
// on a reducer's stream of 25-byte records, {25, 50, 75, 100}. Each stride's
// table cursor, wrap bounds, lag, hit count and prediction live in locals
// rather than in the span scratch, so a byte's four updates and the argmax
// over the next byte's four predictions touch memory only for the tables and
// the history; cursors and hits are written back once per span.
func inverseQuiet4(lin, src []byte, span []spanStride, runs []int32, deltas []byte, thr int32) (predicted int) {
	base := len(lin) - len(src)
	deltas = deltas[:len(runs)]
	span = span[:4]
	e0, lo0, hi0, s0 := span[0].e, span[0].lo, span[0].hi, int(span[0].stride)
	e1, lo1, hi1, s1 := span[1].e, span[1].lo, span[1].hi, int(span[1].stride)
	e2, lo2, hi2, s2 := span[2].e, span[2].lo, span[2].hi, int(span[2].stride)
	e3, lo3, hi3, s3 := span[3].e, span[3].lo, span[3].hi, int(span[3].stride)
	var h0, h1, h2, h3 int32
	q0 := lin[base-s0] + deltas[e0]
	q1 := lin[base-s1] + deltas[e1]
	q2 := lin[base-s2] + deltas[e2]
	q3 := lin[base-s3] + deltas[e3]
	bestRun, pred := int32(-1), byte(0)
	if r := runs[e0]; r > bestRun {
		bestRun, pred = r, q0
	}
	if r := runs[e1]; r > bestRun {
		bestRun, pred = r, q1
	}
	if r := runs[e2]; r > bestRun {
		bestRun, pred = r, q2
	}
	if r := runs[e3]; r > bestRun {
		bestRun, pred = r, q3
	}
	for j, x := range src {
		if bestRun > thr {
			x += pred
			predicted++
		}
		p := base + j
		lin[p] = x
		p++ // the next byte's index: a stride's previous byte is lin[p-s]
		bestRun = -1
		if x == q0 {
			runs[e0]++
			h0++
		} else {
			deltas[e0] += x - q0
			runs[e0] = 0
		}
		if e0++; e0 == hi0 {
			e0 = lo0
		}
		q0 = lin[p-s0] + deltas[e0]
		if r := runs[e0]; r > bestRun {
			bestRun, pred = r, q0
		}
		if x == q1 {
			runs[e1]++
			h1++
		} else {
			deltas[e1] += x - q1
			runs[e1] = 0
		}
		if e1++; e1 == hi1 {
			e1 = lo1
		}
		q1 = lin[p-s1] + deltas[e1]
		if r := runs[e1]; r > bestRun {
			bestRun, pred = r, q1
		}
		if x == q2 {
			runs[e2]++
			h2++
		} else {
			deltas[e2] += x - q2
			runs[e2] = 0
		}
		if e2++; e2 == hi2 {
			e2 = lo2
		}
		q2 = lin[p-s2] + deltas[e2]
		if r := runs[e2]; r > bestRun {
			bestRun, pred = r, q2
		}
		if x == q3 {
			runs[e3]++
			h3++
		} else {
			deltas[e3] += x - q3
			runs[e3] = 0
		}
		if e3++; e3 == hi3 {
			e3 = lo3
		}
		q3 = lin[p-s3] + deltas[e3]
		if r := runs[e3]; r > bestRun {
			bestRun, pred = r, q3
		}
	}
	span[0].e, span[0].hits = e0, h0
	span[1].e, span[1].hits = e1, h1
	span[2].e, span[2].hits = e2, h2
	span[3].e, span[3].hits = e3, h3
	return predicted
}

// inverseQuiet5 is inverseQuiet4 with a fifth stride — on a reducer's stream,
// the probationary stride the selection cycle admits beside the record's four.
func inverseQuiet5(lin, src []byte, span []spanStride, runs []int32, deltas []byte, thr int32) (predicted int) {
	base := len(lin) - len(src)
	deltas = deltas[:len(runs)]
	span = span[:5]
	e0, lo0, hi0, s0 := span[0].e, span[0].lo, span[0].hi, int(span[0].stride)
	e1, lo1, hi1, s1 := span[1].e, span[1].lo, span[1].hi, int(span[1].stride)
	e2, lo2, hi2, s2 := span[2].e, span[2].lo, span[2].hi, int(span[2].stride)
	e3, lo3, hi3, s3 := span[3].e, span[3].lo, span[3].hi, int(span[3].stride)
	e4, lo4, hi4, s4 := span[4].e, span[4].lo, span[4].hi, int(span[4].stride)
	var h0, h1, h2, h3, h4 int32
	q0 := lin[base-s0] + deltas[e0]
	q1 := lin[base-s1] + deltas[e1]
	q2 := lin[base-s2] + deltas[e2]
	q3 := lin[base-s3] + deltas[e3]
	q4 := lin[base-s4] + deltas[e4]
	bestRun, pred := int32(-1), byte(0)
	if r := runs[e0]; r > bestRun {
		bestRun, pred = r, q0
	}
	if r := runs[e1]; r > bestRun {
		bestRun, pred = r, q1
	}
	if r := runs[e2]; r > bestRun {
		bestRun, pred = r, q2
	}
	if r := runs[e3]; r > bestRun {
		bestRun, pred = r, q3
	}
	if r := runs[e4]; r > bestRun {
		bestRun, pred = r, q4
	}
	for j, x := range src {
		if bestRun > thr {
			x += pred
			predicted++
		}
		p := base + j
		lin[p] = x
		p++
		bestRun = -1
		if x == q0 {
			runs[e0]++
			h0++
		} else {
			deltas[e0] += x - q0
			runs[e0] = 0
		}
		if e0++; e0 == hi0 {
			e0 = lo0
		}
		q0 = lin[p-s0] + deltas[e0]
		if r := runs[e0]; r > bestRun {
			bestRun, pred = r, q0
		}
		if x == q1 {
			runs[e1]++
			h1++
		} else {
			deltas[e1] += x - q1
			runs[e1] = 0
		}
		if e1++; e1 == hi1 {
			e1 = lo1
		}
		q1 = lin[p-s1] + deltas[e1]
		if r := runs[e1]; r > bestRun {
			bestRun, pred = r, q1
		}
		if x == q2 {
			runs[e2]++
			h2++
		} else {
			deltas[e2] += x - q2
			runs[e2] = 0
		}
		if e2++; e2 == hi2 {
			e2 = lo2
		}
		q2 = lin[p-s2] + deltas[e2]
		if r := runs[e2]; r > bestRun {
			bestRun, pred = r, q2
		}
		if x == q3 {
			runs[e3]++
			h3++
		} else {
			deltas[e3] += x - q3
			runs[e3] = 0
		}
		if e3++; e3 == hi3 {
			e3 = lo3
		}
		q3 = lin[p-s3] + deltas[e3]
		if r := runs[e3]; r > bestRun {
			bestRun, pred = r, q3
		}
		if x == q4 {
			runs[e4]++
			h4++
		} else {
			deltas[e4] += x - q4
			runs[e4] = 0
		}
		if e4++; e4 == hi4 {
			e4 = lo4
		}
		q4 = lin[p-s4] + deltas[e4]
		if r := runs[e4]; r > bestRun {
			bestRun, pred = r, q4
		}
	}
	span[0].e, span[0].hits = e0, h0
	span[1].e, span[1].hits = e1, h1
	span[2].e, span[2].hits = e2, h2
	span[3].e, span[3].hits = e3, h3
	span[4].e, span[4].hits = e4, h4
	return predicted
}

// pushHistory advances the history ring and the stream position by b, whose
// last min(len(b), MaxStride) bytes are all the ring keeps: the byte at
// offset j of b belongs at ring slot (wpos+1+j) mod MaxStride.
func (t *Transformer) pushHistory(b []byte) {
	maxS := t.cfg.MaxStride
	start := len(b) - min(len(b), maxS)
	n := copy(t.window[(t.wpos+1+start)%maxS:], b[start:])
	copy(t.window, b[start+n:])
	t.wpos = (t.wpos + len(b)) % maxS
	t.pos += int64(len(b))
}

// Stats is the transformer's adaptive-set telemetry for one stream (i.e.
// since construction or the last Reset). Eviction/admission churn and the
// prediction rate are the observable face of Section III-A's active-set
// management; the metrics registry surfaces them per job.
type Stats struct {
	// Bytes is the stream position: bytes transformed so far.
	Bytes int64
	// ActiveStrides is the current active-set size.
	ActiveStrides int
	// Evictions counts strides removed from the active set; Admissions
	// counts evicted strides re-admitted by the selection cycle.
	Evictions  int64
	Admissions int64
	// PredictedBytes counts bytes that traveled as prediction residuals
	// (the rest passed through untransformed).
	PredictedBytes int64
	// SeqHits / SeqChecks aggregate the active strides' sequence-table hit
	// accounting (each stride's window restarts at its last activation).
	SeqHits   int64
	SeqChecks int64
}

// Stats reads the transformer's telemetry. It walks the active set (cold
// path, allocation-free) and may be called at any point in a stream.
func (t *Transformer) Stats() Stats {
	s := Stats{
		Bytes:          t.pos,
		ActiveStrides:  len(t.actives),
		Evictions:      t.evictions,
		Admissions:     t.admissions,
		PredictedBytes: t.predicted,
	}
	for _, si := range t.actives {
		st := &t.strides[si]
		s.SeqHits += st.hits
		s.SeqChecks += st.total
	}
	return s
}

// ActiveStrides returns the strides currently in the active set, for
// diagnostics and tests.
func (t *Transformer) ActiveStrides() []int {
	out := make([]int, 0, len(t.actives))
	for _, si := range t.actives {
		out = append(out, int(t.strides[si].stride))
	}
	return out
}

// BestSequence reports the stride, phase, delta and run length of the
// longest-running sequence at the current position — the (δ=0x0a, s=47,
// φ=34) detection of Fig. 2 is observable through this.
func (t *Transformer) BestSequence() (stride, phase int, delta byte, run int32) {
	var bestRun int32 = -1
	for _, si := range t.actives {
		st := &t.strides[si]
		if t.pos < int64(st.stride) {
			continue
		}
		e := st.seqOff + st.phase
		if r := t.runs[e]; r > bestRun {
			bestRun = r
			stride, phase, delta, run = int(st.stride), int(st.phase), t.deltas[e], r
		}
	}
	return stride, phase, delta, run
}

package predictor

// This file retains the original scalar implementation of the Section III
// transform, verbatim, as the package's executable specification. The
// optimized Transformer must produce byte-identical output; the differential
// tests and FuzzEquivalence drive both implementations over the same streams
// and fail on the first diverging byte. Keep this file boring: any
// "optimization" applied here would silently weaken the oracle.

// refSeqEntry is the per-(stride, phase) state: the last difference seen and
// how many consecutive bytes it has held.
type refSeqEntry struct {
	delta byte
	run   int32
}

// refStrideState tracks one stride of the full set.
type refStrideState struct {
	stride int
	seqs   []refSeqEntry // one per phase
	active bool
	// phase is pos mod stride and back is (pos - stride) mod MaxStride,
	// maintained incrementally while the stride is active (recomputed on
	// admission) so the per-byte hot loops avoid division.
	phase int
	back  int
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

// Reference applies the forward or inverse transform with the original
// per-byte scalar algorithm. It is the semantic oracle for Transformer and
// is deliberately unoptimized.
type Reference struct {
	cfg     Config
	strides []*refStrideState
	actives []*refStrideState // current active set, dense
	window  []byte            // ring buffer of the last MaxStride original bytes
	wpos    int               // ring index of the most recently written byte
	pos     int64             // bytes processed
	cycle   int64             // selection cycles elapsed
	// predicted counts the bytes that traveled as residuals; it feeds no
	// decision, only the differential tests' comparison with Stats.
	predicted int64
}

// NewReference returns a Reference for cfg (zero-value fields take the
// paper's defaults).
func NewReference(cfg Config) *Reference {
	cfg = cfg.withDefaults()
	t := &Reference{cfg: cfg, window: make([]byte, cfg.MaxStride), wpos: cfg.MaxStride - 1}
	inFixed := func(s int) bool {
		for _, f := range cfg.Strides {
			if f == s {
				return true
			}
		}
		return false
	}
	for s := 1; s <= cfg.MaxStride; s++ {
		if cfg.Mode == Fixed && !inFixed(s) {
			continue
		}
		st := &refStrideState{
			stride:            s,
			seqs:              make([]refSeqEntry, s),
			active:            true,
			back:              (cfg.MaxStride - s) % cfg.MaxStride,
			lastSelectedCycle: -int64(s), // immediately eligible
		}
		t.strides = append(t.strides, st)
		t.actives = append(t.actives, st)
	}
	return t
}

// Reset returns the reference to its initial state for a new stream.
func (t *Reference) Reset() {
	t.pos = 0
	t.cycle = 0
	t.predicted = 0
	t.wpos = t.cfg.MaxStride - 1
	t.actives = t.actives[:0]
	for _, st := range t.strides {
		for i := range st.seqs {
			st.seqs[i] = refSeqEntry{}
		}
		st.active = true
		st.activatedAt = 0
		st.hits, st.total = 0, 0
		st.phase = 0
		st.back = (t.cfg.MaxStride - st.stride) % t.cfg.MaxStride
		st.evictedAtCycle = 0
		st.lastSelectedCycle = -int64(st.stride)
		t.actives = append(t.actives, st)
	}
	for i := range t.window {
		t.window[i] = 0
	}
}

// predict returns the predicted value for the next byte and whether a
// prediction is made. It must be called before step records the byte.
func (t *Reference) predict() (byte, bool) {
	var best *refStrideState
	var bestRun int32 = -1
	for _, st := range t.actives {
		if t.pos < int64(st.stride) {
			continue
		}
		e := &st.seqs[st.phase]
		if e.run > bestRun {
			bestRun = e.run
			best = st
		}
	}
	if best == nil || bestRun <= int32(t.cfg.RunThreshold) {
		return 0, false
	}
	return t.window[best.back] + best.seqs[best.phase].delta, true
}

// step records original byte x at the current position, updating sequence
// tables, hit rates, the active set, and the history window.
func (t *Reference) step(x byte) {
	max := t.cfg.MaxStride
	for _, st := range t.actives {
		if t.pos >= int64(st.stride) {
			d := x - t.window[st.back]
			e := &st.seqs[st.phase]
			if d == e.delta {
				e.run++
				st.hits++
			} else {
				e.delta = d
				e.run = 0
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
	if t.wpos++; t.wpos == max {
		t.wpos = 0
	}
	t.window[t.wpos] = x
	t.pos++

	if t.cfg.Mode == Adaptive {
		t.evict()
		if t.pos%int64(t.cfg.SelectionCycle) == 0 {
			t.cycle++
			t.admit()
		}
	}
}

// evict removes active strides whose hit rate has fallen below the
// threshold after the 2s settling period.
func (t *Reference) evict() {
	kept := t.actives[:0]
	for _, st := range t.actives {
		if t.pos-st.activatedAt >= int64(t.cfg.MinActiveFactor*st.stride) &&
			st.total > 0 &&
			st.hits*int64(t.cfg.HitRateDen) < st.total*int64(t.cfg.HitRateNum) {
			st.active = false
			st.evictedAtCycle = t.cycle
			continue
		}
		kept = append(kept, st)
	}
	t.actives = kept
}

// admit re-adds the evicted stride that has been out the longest among
// those eligible this cycle.
func (t *Reference) admit() {
	var pick *refStrideState
	for _, st := range t.strides {
		if st.active {
			continue
		}
		if t.cycle-st.lastSelectedCycle < int64(st.stride) {
			continue
		}
		if pick == nil || st.evictedAtCycle < pick.evictedAtCycle {
			pick = st
		}
	}
	if pick == nil {
		return
	}
	pick.active = true
	pick.activatedAt = t.pos
	pick.hits, pick.total = 0, 0
	// Recompute the incremental indices the stride missed while evicted.
	max := int64(t.cfg.MaxStride)
	pick.phase = int(t.pos % int64(pick.stride))
	pick.back = int(((t.pos-int64(pick.stride))%max + max) % max)
	pick.lastSelectedCycle = t.cycle
	t.actives = append(t.actives, pick)
}

// Forward transforms original bytes src, appending the residual stream to
// dst and returning it. Chunks may be fed incrementally; state carries
// across calls.
func (t *Reference) Forward(dst, src []byte) []byte {
	for _, x := range src {
		if p, ok := t.predict(); ok {
			dst = append(dst, x-p)
			t.predicted++
		} else {
			dst = append(dst, x)
		}
		t.step(x)
	}
	return dst
}

// Inverse reconstructs original bytes from residual bytes src, appending to
// dst. It replays exactly the decision procedure of Forward against the
// reconstructed history, so a fresh Reference with the same Config inverts
// any Forward stream.
func (t *Reference) Inverse(dst, src []byte) []byte {
	for _, y := range src {
		var x byte
		if p, ok := t.predict(); ok {
			x = y + p
			t.predicted++
		} else {
			x = y
		}
		dst = append(dst, x)
		t.step(x)
	}
	return dst
}

// ActiveStrides returns the strides currently in the active set.
func (t *Reference) ActiveStrides() []int {
	out := make([]int, 0, len(t.actives))
	for _, st := range t.actives {
		out = append(out, st.stride)
	}
	return out
}

// strideCounters is one active stride's hit accounting — the numbers the
// eviction predicate reads, so two implementations that agree on them (and
// on the active set) agree on every eviction still to come.
type strideCounters struct {
	stride      int
	hits, total int64
}

// counters lists the active strides' hit accounting, in active-set order.
func (t *Reference) counters() []strideCounters {
	out := make([]strideCounters, 0, len(t.actives))
	for _, st := range t.actives {
		out = append(out, strideCounters{st.stride, st.hits, st.total})
	}
	return out
}

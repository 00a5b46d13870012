package mapreduce

import (
	"math"
	"slices"
)

// sortPartition orders pb.refs by key, stably, as a spill needs them: by
// the job's SortWords when every key yields words under one variable
// section, by Compare otherwise. Both give Compare's order with ties in
// arrival order, so the spill's bytes do not depend on which decided. It
// reports whether the words did.
func (j *Job) sortPartition(pb *partBuffer, ws *wordSort) bool {
	if j.SortWords != nil && ws.sort(pb, j.SortWords) {
		return true
	}
	cmp := j.Compare
	slices.SortStableFunc(pb.refs, func(a, b kvRef) int { return cmp(pb.key(a), pb.key(b)) })
	return false
}

// wordSort is the scratch of a stable LSD radix sort over key words,
// sized to the largest partition the owning buffer set has sorted: each
// record's word by arrival position, the index of arrival positions the
// passes scatter between its two buffers, and the per-byte histograms.
// That is 16 bytes a record.
type wordSort struct {
	w       []uint64
	ix, tmp []uint32
	hist    [8][256]uint32
}

// sort orders pb.refs by the words words gives each key and reports true,
// or reports false and leaves pb.refs as they were when some key yields no
// words or a variable section other than the first key's.
//
// One pass reads every key's words, checks the variable section, and
// notes whether the refs are sorted already and whether any lo word
// differs from the first key's (a rank 3–4 key's trailing coordinates).
// The index is then radix-sorted on lo, if it varies, and then on hi, each
// loaded from the keys before its turn, and refs are permuted to it in
// place.
func (ws *wordSort) sort(pb *partBuffer, words func([]byte) (hi, lo uint64, end int, ok bool)) bool {
	refs := pb.refs
	n := len(refs)
	first := pb.key(refs[0])
	hi0, lo0, end, ok := words(first)
	if !ok || uint64(n) >= math.MaxUint32 { // the index is uint32, MaxUint32 gather's mark
		return false
	}
	vs := first[:end]
	ws.w = slices.Grow(ws.w[:0], n)[:n]
	ws.ix, ws.tmp = slices.Grow(ws.ix[:0], n)[:n], slices.Grow(ws.tmp[:0], n)[:n]
	w, ix, tmp := ws.w, ws.ix, ws.tmp
	sorted, prevHi, prevLo := true, hi0, lo0
	var loDiff uint64
	base := ^uint64(0)
	for i, r := range refs {
		k := pb.key(r)
		hi, lo, e, ok := words(k)
		if !ok || string(k[:e]) != string(vs) {
			return false
		}
		if hi < prevHi || hi == prevHi && lo < prevLo {
			sorted = false
		}
		prevHi, prevLo = hi, lo
		loDiff |= lo ^ lo0
		base = minLanes(base, hi)
		w[i], ix[i] = hi, uint32(i)
	}
	if sorted {
		return true
	}
	if loDiff != 0 {
		loBase := ^uint64(0)
		for i, r := range refs {
			_, lo, _, _ := words(pb.key(r))
			loBase = minLanes(loBase, lo)
			w[i] = lo
		}
		ix, tmp = ws.radix(ix, tmp, loBase)
		for i, r := range refs {
			w[i], _, _, _ = words(pb.key(r))
		}
	}
	ix, _ = ws.radix(ix, tmp, base)
	gather(refs, ix)
	return true
}

// minLanes is the lane-wise minimum of two words' 32-bit halves.
func minLanes(a, b uint64) uint64 {
	return min(a>>32, b>>32)<<32 | min(a&math.MaxUint32, b&math.MaxUint32)
}

// radix sorts the index ix by ws.w, stably: one scatter into tmp per byte
// that varies across the words, the two swapping roles after each. It
// returns the buffer that holds the result and the other one.
//
// base is minLanes over every word, and each word is rebased to w - base
// first. That keeps the order (each half stays non-negative, so nothing
// borrows across the halves) and leaves a narrow range of coordinates in
// its low bytes: without it a window across the sign boundary, where -1
// flips to 0x7fffffff and 0 to 0x80000000, would make every byte vary.
func (ws *wordSort) radix(ix, tmp []uint32, base uint64) (sorted, spare []uint32) {
	w := ws.w
	h := &ws.hist
	*h = [8][256]uint32{}
	for i := range w {
		x := w[i] - base
		w[i] = x
		h[0][byte(x)]++
		h[1][byte(x>>8)]++
		h[2][byte(x>>16)]++
		h[3][byte(x>>24)]++
		h[4][byte(x>>32)]++
		h[5][byte(x>>40)]++
		h[6][byte(x>>48)]++
		h[7][byte(x>>56)]++
	}
	for d := range h {
		shift := uint(8 * d)
		c := &h[d]
		if int(c[byte(w[0]>>shift)]) == len(w) {
			continue // every word has this byte
		}
		var sum uint32
		for b, k := range c {
			c[b], sum = sum, sum+k
		}
		for _, i := range ix {
			b := byte(w[i] >> shift)
			tmp[c[b]] = i
			c[b]++
		}
		ix, tmp = tmp, ix
	}
	return ix, tmp
}

// gather permutes refs in place so that refs[i] becomes the old
// refs[ix[i]], following each cycle of the permutation once and marking
// the index entries it has placed.
func gather(refs []kvRef, ix []uint32) {
	const placed = math.MaxUint32
	for i := range refs {
		if ix[i] == placed {
			continue
		}
		r, k := refs[i], i
		for {
			src := int(ix[k])
			ix[k] = placed
			if src == i {
				refs[k] = r
				break
			}
			refs[k] = refs[src]
			k = src
		}
	}
}

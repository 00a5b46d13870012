package grid

// ForEach invokes fn for every cell of b in row-major order. The coordinate
// is reused across invocations.
func ForEach(b Box, fn func(Coord)) {
	if b.Empty() {
		return
	}
	c := b.Corner.Clone()
	for {
		fn(c)
		d := len(c) - 1
		for ; d >= 0; d-- {
			c[d]++
			if c[d] < b.Corner[d]+b.Size[d] {
				break
			}
			c[d] = b.Corner[d]
		}
		if d < 0 {
			return
		}
	}
}

// RowMajorIndex returns the row-major linear index of c within b. c must lie
// inside b.
func RowMajorIndex(b Box, c Coord) int64 {
	idx := int64(0)
	for i := range c {
		idx = idx*int64(b.Size[i]) + int64(c[i]-b.Corner[i])
	}
	return idx
}

// CoordAtRowMajor inverts RowMajorIndex.
func CoordAtRowMajor(b Box, idx int64) Coord {
	c := make(Coord, b.Rank())
	for i := b.Rank() - 1; i >= 0; i-- {
		s := int64(b.Size[i])
		c[i] = b.Corner[i] + int(idx%s)
		idx /= s
	}
	return c
}

// Partition divides b into roughly-equal contiguous blocks by slicing the
// first (slowest-varying) dimension into n pieces, mirroring how SciHadoop
// assigns contiguous array slabs to map tasks. Fewer than n boxes are
// returned when the first dimension has fewer than n rows.
func Partition(b Box, n int) []Box {
	if n <= 1 || b.Empty() {
		return []Box{b.Clone()}
	}
	rows := b.Size[0]
	if n > rows {
		n = rows
	}
	out := make([]Box, 0, n)
	start := 0
	for i := 0; i < n; i++ {
		// Spread the remainder across the leading splits.
		count := rows / n
		if i < rows%n {
			count++
		}
		piece := b.Clone()
		piece.Corner[0] = b.Corner[0] + start
		piece.Size[0] = count
		out = append(out, piece)
		start += count
	}
	return out
}

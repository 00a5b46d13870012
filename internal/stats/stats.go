// Package stats provides the small statistical kernels used by the query
// layer (sliding-window median is the paper's evaluation workload) and by
// the experiment harness, and the thousands-separated rendering the CLIs
// print counters with.
package stats

import "fmt"

// MedianInPlace returns the median of xs, reordering it: the middle element
// for odd lengths, the mean of the two middle elements (rounded toward zero,
// like Hadoop's integer arithmetic) for even lengths.
func MedianInPlace(xs []int32) int32 {
	n := len(xs)
	if n == 0 {
		panic("stats: median of empty slice")
	}
	mid := n / 2
	quickSelect(xs, mid)
	if n%2 == 1 {
		return xs[mid]
	}
	// Even length: the other middle element is the max of the left part.
	lo := xs[0]
	for _, v := range xs[:mid] {
		if v > lo {
			lo = v
		}
	}
	return int32((int64(lo) + int64(xs[mid])) / 2)
}

// quickSelect partially sorts xs so xs[k] holds the k-th smallest element
// and everything before it is <= xs[k].
func quickSelect(xs []int32, k int) {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		// Median-of-three pivot against sorted-input worst cases.
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
}

// LinearFit returns slope, intercept and R² of an ordinary least squares
// fit of y on x — used to verify Fig. 4's "transform time is linear in file
// size".
func LinearFit(x, y []float64) (slope, intercept, r2 float64) {
	if len(x) != len(y) || len(x) < 2 {
		panic(fmt.Sprintf("stats: bad fit input (%d, %d points)", len(x), len(y)))
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy, syy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
		syy += y[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		panic("stats: degenerate x values")
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot == 0 {
		return slope, intercept, 1
	}
	var ssRes float64
	for i := range x {
		d := y[i] - (slope*x[i] + intercept)
		ssRes += d * d
	}
	return slope, intercept, 1 - ssRes/ssTot
}

// FormatBytes renders a byte or record count with thousands separators.
func FormatBytes(n int64) string {
	s := fmt.Sprintf("%d", n)
	out := make([]byte, 0, len(s)+len(s)/3)
	for i, c := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 && c != '-' {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	return string(out)
}

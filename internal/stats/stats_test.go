package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMedianInPlaceKnown(t *testing.T) {
	cases := []struct {
		in   []int32
		want int32
	}{
		{[]int32{5}, 5},
		{[]int32{1, 2, 3}, 2},
		{[]int32{3, 1, 2}, 2},
		{[]int32{1, 2, 3, 4}, 2},
		{[]int32{4, 1, 3, 2}, 2},
		{[]int32{-5, 5}, 0},
		{[]int32{7, 7, 7, 7, 7}, 7},
		{[]int32{9, 1, 8, 2, 7, 3, 6, 4, 5}, 5},
	}
	for _, c := range cases {
		orig := append([]int32(nil), c.in...)
		if got := MedianInPlace(c.in); got != c.want {
			t.Errorf("MedianInPlace(%v) = %d, want %d", orig, got, c.want)
		}
	}
}

func TestMedianInPlaceMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(50)
		xs := make([]int32, n)
		for i := range xs {
			xs[i] = int32(rng.Intn(100) - 50)
		}
		want := sortMedian(xs)
		if got := MedianInPlace(append([]int32(nil), xs...)); got != want {
			t.Fatalf("MedianInPlace(%v) = %d, want %d", xs, got, want)
		}
	}
}

func sortMedian(xs []int32) int32 {
	tmp := append([]int32(nil), xs...)
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return int32((int64(tmp[n/2-1]) + int64(tmp[n/2])) / 2)
}

func TestMedianInPlaceEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MedianInPlace(nil)
}

func TestLinearFit(t *testing.T) {
	// y = 2x + 1 exactly.
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{3, 5, 7, 9, 11}
	slope, intercept, r2 := LinearFit(x, y)
	if slope < 1.999 || slope > 2.001 || intercept < 0.999 || intercept > 1.001 {
		t.Errorf("fit = %f, %f", slope, intercept)
	}
	if r2 < 0.9999 {
		t.Errorf("R² = %f, want ~1", r2)
	}
	// Noisy data still fits well but not perfectly.
	rng := rand.New(rand.NewSource(2))
	for i := range y {
		y[i] += rng.Float64()*0.2 - 0.1
	}
	_, _, r2 = LinearFit(x, y)
	if r2 < 0.99 || r2 > 1 {
		t.Errorf("noisy R² = %f", r2)
	}
}

func TestLinearFitQuick(t *testing.T) {
	// Perfect lines always give R² == 1 (within float error).
	f := func(slope, intercept int8) bool {
		x := []float64{0, 1, 2, 3, 10}
		y := make([]float64, len(x))
		for i := range x {
			y[i] = float64(slope)*x[i] + float64(intercept)
		}
		s, b, r2 := LinearFit(x, y)
		return r2 > 0.999999 &&
			s > float64(slope)-0.001 && s < float64(slope)+0.001 &&
			b > float64(intercept)-0.001 && b < float64(intercept)+0.001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

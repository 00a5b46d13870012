package main

import (
	"testing"
)

// runsOf builds both sides' results for one metric from parallel value
// lists, every run with the same sha and shuffle bytes.
func runsOf(metric string, parent, change []float64) *[2][]result {
	var runs [2][]result
	for side, vals := range [2][]float64{parent, change} {
		for _, v := range vals {
			r := result{sha: "a3138668efea", Metrics: map[string]struct {
				Value float64 `json:"value"`
			}{metric: {v}, "shuffle_bytes": {3686700}}}
			runs[side] = append(runs[side], r)
		}
	}
	return &runs
}

func TestSummarizeVerdicts(t *testing.T) {
	wall := metricDef{Name: "query_wall_s", Unit: "s", Better: "lower", Bound: 0.25}
	parent := []float64{0.050, 0.052, 0.051, 0.053, 0.050, 0.052, 0.051, 0.054, 0.050, 0.052}
	faster := []float64{0.043, 0.044, 0.042, 0.045, 0.043, 0.044, 0.043, 0.046, 0.042, 0.044}
	oneLoss := append([]float64{0.055}, faster[1:]...)
	twoLosses := append([]float64{0.055, 0.056}, faster[2:]...)
	wide := []float64{0.02, 0.08, 0.04, 0.02, 0.04, 0.08, 0.04, 0.02, 0.08, 0.04}
	slower := []float64{0.055, 0.055, 0.055, 0.055, 0.055, 0.055, 0.055, 0.055, 0.055, 0.055}
	for _, c := range []struct {
		name           string
		parent, change []float64
		verdict        string
		won            int
	}{
		{"faster in every pair", parent, faster, "claim met", 10},
		{"faster in nine pairs", parent, oneLoss, "claim met", 9},
		{"faster in eight pairs", parent, twoLosses, "unresolved", 8},
		// Every change run beats every parent run, which is no regression,
		// but nine pairs cannot carry a claim.
		{"nine pairs are too few", parent[:9], faster[:9], "bypass within spread", 9},
		{"faster in eight of nine pairs", parent[:9], oneLoss[:9], "unresolved", 8},
		{"slower in every pair", faster, parent, "worse", 0},
		{"the same", parent, parent, "bypass within spread", 0},
		// The parent's IQR (0.045) is wider than the bound (0.25 × 0.04):
		// the change is past the bound yet inside the spread.
		{"past the bound inside a wide spread", wide, slower, "unresolved", 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := summarize("oneshot-baseline", wall, "parent", 0, 10, runsOf(wall.Name, c.parent, c.change))
			if rec.Verdict != c.verdict || rec.PairsWon != c.won {
				t.Fatalf("verdict %q with %d pairs won, want %q with %d", rec.Verdict, rec.PairsWon, c.verdict, c.won)
			}
			if !rec.SHAEqual || !rec.ShuffleBytesEqual {
				t.Fatalf("sha equal %v, shuffle bytes equal %v; every run printed the same", rec.SHAEqual, rec.ShuffleBytesEqual)
			}
		})
	}
}

func TestSpreadOf(t *testing.T) {
	sp := spreadOf([]float64{4, 1, 3, 2, 5})
	if sp.Median != 3 || sp.Q1 != 2 || sp.Q3 != 4 || sp.IQR != 2 {
		t.Fatalf("spread of 1..5 is %+v, want median 3, quartiles 2 and 4", sp)
	}
	sp = spreadOf([]float64{1, 2, 3, 4})
	if sp.Median != 2.5 || sp.Q1 != 1.75 || sp.Q3 != 3.25 {
		t.Fatalf("spread of 1..4 is %+v, want median 2.5, quartiles 1.75 and 3.25", sp)
	}
}

func TestSummarizeSeesAnotherSHA(t *testing.T) {
	wall := metricDef{Name: "query_wall_s", Better: "lower"}
	runs := runsOf(wall.Name, []float64{1, 1}, []float64{1, 1})
	runs[1][1].sha = "ffffffffffff"
	runs[1][0].Metrics["shuffle_bytes"] = struct {
		Value float64 `json:"value"`
	}{3686701}
	rec := summarize("oneshot-baseline", wall, "parent", 0, 10, runs)
	if rec.SHAEqual || rec.ShuffleBytesEqual {
		t.Fatalf("sha equal %v, shuffle bytes equal %v; one change run differs in each", rec.SHAEqual, rec.ShuffleBytesEqual)
	}
}

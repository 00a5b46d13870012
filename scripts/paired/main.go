// Command paired runs the paired-run rule of bench/README.md between a
// parent commit and the working tree, and says whether a claimed gain holds.
//
//	go run ./scripts/paired -parent <commit> [-workloads w1,w2] [-pairs 10]
//	    [-seed 0] [-claim metric]
//
// It extracts the parent's tree (`git archive | tar -x`) into a temporary
// directory, builds ./bench once per side (the parent from that copy, the
// change from the working tree), and runs N pairs over the named workloads.
// Each pair runs both sides once per workload, and the side that goes first
// flips from pair to pair, so both sides see the same host states. Each run
// is `bench -workload W -seed S -seconds T -trace 0` in a temporary directory
// of its own, T being BENCHMARK.json's run_seconds.
//
// The output is one JSON record per (workload, metric) of BENCHMARK.json's
// end-to-end metrics: both sides' medians and interquartile ranges, the
// ratio of the medians and the per-pair ratios (change over parent), the
// pairs the change won, whether every run of both sides printed the same
// output sha and shuffle_bytes, the host-probe range, whether the change's
// median stays within the metric's BENCHMARK.json bound, and a verdict:
//
//   - "claim met": at least 10 pairs, the change better in at least 90 % of
//     them, and the medians further apart than the parent's IQR;
//   - "worse": the same rule with the sides swapped;
//   - "bypass within spread": the medians no further apart than the
//     parent's IQR and the change's median within the bound, or every
//     change run better than every parent run;
//   - "unresolved": anything else.
//
// With -claim METRIC the exit status is 1 unless every named workload's
// METRIC record says "claim met" and every run of both sides printed one
// output sha. `make bench-claim` is that form. A failed run exits 2.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// metricDef is one end-to-end metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is what one bench run printed: its JSON result line and, from the
// summary line on stderr, the output sha prefix and the host probe.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	sha     string
	probeMS float64
}

// spread is one side's runs of one metric.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	IQR    float64 `json:"iqr"`
}

// record is the output line for one (workload, metric).
type record struct {
	Workload          string     `json:"workload"`
	Metric            string     `json:"metric"`
	Unit              string     `json:"unit"`
	Better            string     `json:"better"`
	Seed              int        `json:"seed"`
	Seconds           float64    `json:"seconds"`
	Parent            string     `json:"parent"`
	Pairs             int        `json:"pairs"`
	ParentSpread      spread     `json:"parent_runs"`
	ChangeSpread      spread     `json:"change_runs"`
	Ratio             float64    `json:"ratio"`
	PairRatios        []float64  `json:"pair_ratios"`
	PairsWon          int        `json:"pairs_won"`
	Bound             float64    `json:"bound"`
	WithinBound       bool       `json:"within_bound"`
	ShuffleBytesEqual bool       `json:"shuffle_bytes_equal"`
	SHAEqual          bool       `json:"sha_equal"`
	HostProbeMS       [2]float64 `json:"host_probe_ms"`
	Verdict           string     `json:"verdict"`
}

var (
	shaRE   = regexp.MustCompile(`\bsha ([0-9a-f]+)`)
	probeRE = regexp.MustCompile(`host probe ([0-9.]+)ms`)
)

func main() {
	parent := flag.String("parent", "", "parent commit to compare the working tree against (required)")
	workloads := flag.String("workloads", "oneshot-baseline", "comma-separated BENCHMARK.json workloads")
	pairs := flag.Int("pairs", 10, "parent/change pairs per workload")
	seed := flag.Int("seed", 0, "-seed of every bench run")
	claim := flag.String("claim", "", "exit 1 unless this metric's verdict is \"claim met\" on every workload")
	flag.Parse()
	if *parent == "" || *pairs < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*parent, strings.Split(*workloads, ","), *pairs, *seed, *claim); err != nil {
		fmt.Fprintln(os.Stderr, "paired:", err)
		if errors.Is(err, errClaim) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

var errClaim = errors.New("claim does not hold")

func run(parent string, workloads []string, pairs, seed int, claim string) error {
	metrics, seconds, err := readBenchmark("BENCHMARK.json")
	if err != nil {
		return err
	}
	if claim != "" && !slices.ContainsFunc(metrics, func(m metricDef) bool { return m.Name == claim }) {
		return fmt.Errorf("-claim %q is not an end-to-end metric of BENCHMARK.json", claim)
	}
	sha, err := git("rev-parse", "--verify", parent+"^{commit}")
	if err != nil {
		return err
	}
	sha = strings.TrimSpace(sha)
	dir, err := os.MkdirTemp("", "paired-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	src := filepath.Join(dir, "parent-src")
	if err := export(sha, src); err != nil {
		return err
	}
	bins := [2]string{filepath.Join(dir, "parent.bin"), filepath.Join(dir, "change.bin")}
	for i, from := range []string{src, "."} {
		if err := build(from, bins[i]); err != nil {
			return err
		}
	}
	names := [2]string{"parent", "change"}
	runs := map[string]*[2][]result{}
	for _, w := range workloads {
		runs[w] = &[2][]result{}
	}
	for p := range pairs {
		for _, w := range workloads {
			order := [2]int{0, 1}
			if p%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, side := range order {
				r, err := runBench(bins[side], filepath.Join(dir, names[side]), w, seed, seconds)
				if err != nil {
					return fmt.Errorf("pair %d, %s, %s side: %w", p+1, w, names[side], err)
				}
				runs[w][side] = append(runs[w][side], r)
				fmt.Fprintf(os.Stderr, "paired: pair %d/%d %s %s: query_wall_s %.4f\n",
					p+1, pairs, w, names[side], r.Metrics["query_wall_s"].Value)
			}
		}
	}
	var recs []record
	for _, w := range workloads {
		for _, m := range metrics {
			recs = append(recs, summarize(w, m, sha, seed, seconds, runs[w]))
		}
	}
	enc := json.NewEncoder(os.Stdout)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	if claim == "" {
		return nil
	}
	for _, r := range recs {
		if r.Metric != claim {
			continue
		}
		if r.Verdict != "claim met" || !r.SHAEqual {
			return fmt.Errorf("%w: %s %s: verdict %q, one output sha %v", errClaim, r.Workload, r.Metric, r.Verdict, r.SHAEqual)
		}
	}
	fmt.Fprintf(os.Stderr, "paired: claim met: %s on %s\n", claim, strings.Join(workloads, ", "))
	return nil
}

// readBenchmark reads BENCHMARK.json's end-to-end metrics and the length of
// one run in seconds.
func readBenchmark(path string) ([]metricDef, float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("%w (run from the repository root)", err)
	}
	var bf struct {
		RunSeconds float64     `json:"run_seconds"`
		EndToEnd   []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	if bf.RunSeconds <= 0 {
		return nil, 0, fmt.Errorf("%s: run_seconds is %v", path, bf.RunSeconds)
	}
	return bf.EndToEnd, bf.RunSeconds, nil
}

func git(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, ee.Stderr)
		}
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return string(out), nil
}

// export writes the tree of commit sha into dir: `git archive` piped into
// `tar -x`, so the repository gains no worktree entry and its index is not
// touched.
func export(sha, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", "--format=tar", sha)
	untar := exec.Command("tar", "-x", "-C", dir)
	var stderr bytes.Buffer
	archive.Stderr, untar.Stderr = &stderr, &stderr
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	if err := untar.Start(); err != nil {
		return err
	}
	aerr := archive.Run()
	if err := untar.Wait(); aerr == nil {
		aerr = err
	}
	if aerr != nil {
		return fmt.Errorf("git archive %s | tar -x: %v: %s", sha, aerr, stderr.Bytes())
	}
	return nil
}

// build compiles ./bench of the module at dir into bin.
func build(dir, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./bench")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building %s/bench: %v\n%s", dir, err, out)
	}
	return nil
}

// runBench runs one side once in its own working directory and parses what
// it printed. A run that exits non-zero or reports a failed query is an
// error.
func runBench(bin, dir, workload string, seed int, seconds float64) (result, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	cmd := exec.Command(bin, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%v\n%s", err, stderr.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	if !r.Correct || r.Failed > 0 {
		return result{}, fmt.Errorf("%d of %d queries failed\n%s", r.Failed, r.Attempted, stderr.Bytes())
	}
	if m := shaRE.FindStringSubmatch(stderr.String()); m != nil {
		r.sha = m[1]
	}
	if m := probeRE.FindStringSubmatch(stderr.String()); m != nil {
		r.probeMS, _ = strconv.ParseFloat(m[1], 64)
	}
	return r, nil
}

// summarize applies the paired rule to one metric of one workload's runs.
func summarize(w string, m metricDef, parent string, seed int, seconds float64, runs *[2][]result) record {
	rec := record{
		Workload: w, Metric: m.Name, Unit: m.Unit, Better: m.Better, Seed: seed,
		Seconds: seconds, Parent: parent, Pairs: len(runs[0]), Bound: m.Bound,
		ShuffleBytesEqual: true, SHAEqual: true, HostProbeMS: [2]float64{math.Inf(1), 0},
	}
	var vals [2][]float64
	sha0 := runs[0][0].sha
	bytes0 := runs[0][0].Metrics["shuffle_bytes"].Value
	for side := range runs {
		for _, r := range runs[side] {
			vals[side] = append(vals[side], r.Metrics[m.Name].Value)
			rec.SHAEqual = rec.SHAEqual && r.sha != "" && r.sha == sha0
			rec.ShuffleBytesEqual = rec.ShuffleBytesEqual && r.Metrics["shuffle_bytes"].Value == bytes0
			rec.HostProbeMS[0] = min(rec.HostProbeMS[0], r.probeMS)
			rec.HostProbeMS[1] = max(rec.HostProbeMS[1], r.probeMS)
		}
	}
	better := func(a, b float64) bool { // a better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	lost := 0
	for i := range vals[0] {
		p, c := vals[0][i], vals[1][i]
		rec.PairRatios = append(rec.PairRatios, round(c/p))
		if better(c, p) {
			rec.PairsWon++
		} else if better(p, c) {
			lost++
		}
	}
	rec.ParentSpread, rec.ChangeSpread = spreadOf(vals[0]), spreadOf(vals[1])
	pm, cm := rec.ParentSpread.Median, rec.ChangeSpread.Median
	rec.Ratio = round(cm / pm)
	rec.WithinBound = !better(pm, cm) || math.Abs(cm-pm) <= m.Bound*pm
	apart := math.Abs(cm-pm) > rec.ParentSpread.IQR
	need := int(math.Ceil(0.9 * float64(rec.Pairs)))
	switch {
	case rec.Pairs >= 10 && rec.PairsWon >= need && apart && better(cm, pm):
		rec.Verdict = "claim met"
	case rec.Pairs >= 10 && lost >= need && apart && better(pm, cm):
		rec.Verdict = "worse"
	case !apart && rec.WithinBound, allBetter(vals[1], vals[0], better):
		rec.Verdict = "bypass within spread"
	default:
		rec.Verdict = "unresolved"
	}
	return rec
}

// allBetter reports whether every value of a is better than every value of
// b.
func allBetter(a, b []float64, better func(x, y float64) bool) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// spreadOf is the median and the interquartile range of v, the quartiles
// linearly interpolated between order statistics.
func spreadOf(v []float64) spread {
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	sp := spread{Median: q(0.5), Q1: q(0.25), Q3: q(0.75)}
	sp.IQR = sp.Q3 - sp.Q1
	for _, f := range []*float64{&sp.Median, &sp.Q1, &sp.Q3, &sp.IQR} {
		*f = round(*f)
	}
	return sp
}

// round keeps six significant digits, enough for any metric the benchmark
// prints and short enough to read.
func round(x float64) float64 {
	if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) {
		return x
	}
	r, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 6, 64), 64)
	return r
}

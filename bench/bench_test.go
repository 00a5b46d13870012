package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the harness must agree with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// smoke runs one workload on a 32x32 grid with a single set-up and a single
// timed query, and returns the printed result and the -out detail.
func smoke(t *testing.T, workload string, trace bool) (result, detail) {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	var stdout, stderr bytes.Buffer
	code := run(options{
		workload: workload, seconds: 1, trace: trace, out: out,
		tmpDir: filepath.Join(dir, "tmp"), side: 32, reps: 1, setups: 1,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%v: exit %d\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last stdout line is not the result object: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
		t.Fatalf("%s: result %+v", workload, res)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var d detail
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(filepath.Join(dir, "tmp")); len(entries) > 0 {
		t.Errorf("%s: left %d entries in its temp directory", workload, len(entries))
	}
	return res, d
}

func metricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload untraced and traced, and holds the harness to
// BENCHMARK.json and to its own ledger rules. That shuffle_bytes repeats
// exactly needs no assertion here: the harness fails any query whose shuffle
// bytes differ from the warm-up's, and a failed query fails smoke.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	var wantE2E, wantLayers []string
	for _, m := range bf.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range bf.PerLayer {
		wantLayers = append(wantLayers, m.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayers)

	// Workloads that run the same baseline query must produce the same bytes
	// however the query reaches the engine.
	sameQuery := map[string]bool{
		"oneshot-baseline": true, "oneshot-transform": true, "cluster3": true,
		"serve-cold": true, "serve-warm": true,
	}
	baselineSHA := ""

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness has %q (or their reasons differ)", i, bf.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			first, d := smoke(t, w.name, false)
			if got := metricNames(first.Metrics); !slices.Equal(got, wantE2E) {
				t.Errorf("end-to-end names %v, BENCHMARK.json has %v", got, wantE2E)
			}
			for name, m := range first.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v; end-to-end metrics are never 0", name, m.Value)
				}
			}
			if sameQuery[w.name] {
				if baselineSHA == "" {
					baselineSHA = d.SHA
				}
				if d.SHA != baselineSHA {
					t.Errorf("output sha %s, other baseline-query workloads produced %s", d.SHA, baselineSHA)
				}
			}

			traced, td := smoke(t, w.name, true)
			if got := metricNames(traced.Metrics); !slices.Equal(got, wantLayers) {
				t.Errorf("per-layer names differ from BENCHMARK.json:\n got %v\nwant %v", got, wantLayers)
			}
			for name, m := range traced.Metrics {
				if m.Value < 0 && name != "bench.trace_overhead_share" && name != "mapreduce.combine_saved_bytes" {
					t.Errorf("%s = %v", name, m.Value)
				}
			}
			if w.mode == modeOneShot {
				// A sequential query's time rows are disjoint slices of it; the
				// slack is for the sampled codec writes, coarse on a 32x32 grid.
				sum := -traced.Metrics["mapreduce.spill_hidden_s"].Value
				for _, name := range timeRows {
					sum += traced.Metrics[name].Value
				}
				if wall := td.WallS[0]; sum > wall*1.10 && !raceEnabled {
					t.Errorf("ledger rows sum to %.4fs, the traced query took %.4fs", sum, wall)
				}
				if u := traced.Metrics["mapreduce.unattributed_share"].Value; u > 0.10 && w.shuffle == "" {
					t.Errorf("mapreduce.unattributed_share = %.3f", u)
				}
			}
		})
	}
}

// TestBenchmarkFile holds BENCHMARK.json to the limits its consumers set.
func TestBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated metric name %q", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	if len(bf.EndToEnd) < 1 || len(bf.EndToEnd) > 16 || len(bf.PerLayer) < 1 || len(bf.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(bf.EndToEnd), len(bf.PerLayer))
	}
	hasSetup := false
	for _, m := range bf.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if units[m.Name] != m.Unit {
			t.Errorf("%s: unit %q, the harness prints %q", m.Name, m.Unit, units[m.Name])
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range bf.PerLayer {
		check(m.Name, m.Unit, m.Better)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: unit %q, the harness prints %q", m.Name, m.Unit, units[m.Name])
		}
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v", bf.Paths)
	}
}

// TestNoSubprocess keeps the one-process rule: nothing in this directory may
// start another program.
func TestNoSubprocess(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := `"os/` + `exec"`
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte(banned)) {
			t.Errorf("%s imports os/exec", f)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(options{workload: "no-such", seconds: 1, tmpDir: t.TempDir()}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown workload: exit %d", code)
	}
	if stdout.Len() > 0 {
		t.Errorf("a usage error printed a result: %s", stdout.String())
	}
}

func TestAcceptReps(t *testing.T) {
	reps := []sample{{wall: 1, steal: 0.2}, {wall: 2}, {wall: 3, steal: 0.05}, {wall: 4, steal: 0.01}}
	kept, noisy := acceptReps(reps, 2)
	if len(kept) != 2 || noisy != 0 || kept[0].wall != 2 || kept[1].wall != 4 {
		t.Errorf("quiet set: kept %v, noisy %d", kept, noisy)
	}
	kept, noisy = acceptReps(reps, 3)
	if len(kept) != 3 || noisy != 1 || kept[2].wall != 3 {
		t.Errorf("filled set: kept %v, noisy %d", kept, noisy)
	}
}

func TestSeedSide(t *testing.T) {
	if got := seedSide(128, 0); got != 128 {
		t.Errorf("seed 0: side %d", got)
	}
	for seed := int64(1); seed < 20; seed++ {
		if got := seedSide(128, seed); got < 128 || got > 131 || got != seedSide(128, seed+4) {
			t.Errorf("seed %d: side %d", seed, got)
		}
	}
}

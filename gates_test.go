package scikey

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestE2EWorkloadsMatchBenchmark: `make bench-e2e` loops over the
// Makefile's E2E_WORKLOADS, which repeats the workload names BENCHMARK.json
// declares (make cannot read JSON). The two lists must be the same list, in
// the same order, or the smoke silently stops covering a workload.
func TestE2EWorkloadsMatchBenchmark(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, w := range decl.Workloads {
		want = append(want, w.Name)
	}

	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^E2E_WORKLOADS\s*=\s*(.*)$`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile has no E2E_WORKLOADS line")
	}
	if got := strings.Fields(string(m[1])); !reflect.DeepEqual(got, want) {
		t.Errorf("Makefile E2E_WORKLOADS = %v\nBENCHMARK.json workloads = %v", got, want)
	}
}

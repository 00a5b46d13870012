package scikey

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
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

// TestRunPatternsMatchTests: a stress step or gate that runs `go test -run
// <regexp>` checks nothing once the test it names is deleted or renamed —
// the command still passes, with nothing run. Every `|` alternative of the
// first level of every -run regexp in CI and the Makefile must match a Test
// or Fuzz function declared in one of the packages its command names
// (`^$`, which runs no test next to -bench or -fuzz, excepted).
func TestRunPatternsMatchTests(t *testing.T) {
	token := regexp.MustCompile(`'[^']*'|"[^"]*"|[^\s'"]+`)
	for _, file := range []string{".github/workflows/ci.yml", "Makefile"} {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := strings.ReplaceAll(string(raw), "\\\n", " ")
		if file == "Makefile" {
			text = strings.ReplaceAll(text, "$$", "$")
		}
		for _, line := range strings.Split(text, "\n") {
			args := token.FindAllString(line, -1)
			i := slices.Index(args, "test")
			if i < 1 || args[i-1] != "go" && args[i-1] != "$(GO)" {
				continue
			}
			var pattern string
			var pkgs []string
			for j := i + 1; j < len(args); j++ {
				arg := strings.Trim(args[j], `'"`)
				switch {
				case arg == "-run" && j+1 < len(args):
					j++
					pattern = strings.Trim(args[j], `'"`)
				case strings.HasPrefix(arg, "-run="):
					pattern = strings.Trim(strings.TrimPrefix(arg, "-run="), `'"`)
				case arg == "." || strings.HasPrefix(arg, "./"):
					pkgs = append(pkgs, arg)
				}
			}
			if pattern == "" {
				continue
			}
			decls := declaredTests(t, pkgs)
			for _, alt := range topLevel(topLevel(pattern, '/')[0], '|') {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: -run %q: %v", file, pattern, err)
					continue
				}
				if alt != "^$" && !slices.ContainsFunc(decls, re.MatchString) {
					t.Errorf("%s: -run %q: %q matches no test or fuzz function in %v", file, pattern, alt, pkgs)
				}
			}
		}
	}
}

// topLevel splits s at each sep outside parentheses and brackets, as
// `go test -run` splits its regexp into levels at '/'.
func topLevel(s string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '\\':
			i++
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// declaredTests lists the Test and Fuzz functions the _test.go files of
// pkgs declare; a "./..." pattern walks the tree below its root.
func declaredTests(t *testing.T, pkgs []string) []string {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	var names []string
	scan := func(dir string) {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range decl.FindAllSubmatch(src, -1) {
				names = append(names, string(m[1]))
			}
		}
	}
	for _, p := range pkgs {
		root, all := strings.CutSuffix(p, "/...")
		if !all {
			scan(p)
			continue
		}
		if err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() {
				scan(path)
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	return names
}

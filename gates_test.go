package scikey

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
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

// TestMutantPatchesApply: `make mutants` stops at the first patch under
// scripts/mutants that no longer applies, and it takes minutes to get
// there. Each patch is checked here as the script would use it: its
// `# test:` regexp (default ^TestConfigLattice$) must match a Test function
// declared in its `# pkg:` package (default ./internal/mapreduce), it may
// touch only existing non-test Go files, and the old side of every hunk —
// the lines its header counts — must still stand in the file, hunk after
// hunk, so an edit to the code a mutant breaks shows up here first.
func TestMutantPatchesApply(t *testing.T) {
	patches, err := filepath.Glob("scripts/mutants/*.patch")
	if err != nil {
		t.Fatal(err)
	}
	if len(patches) == 0 {
		t.Fatal("no patches under scripts/mutants")
	}
	hunkHeader := regexp.MustCompile(`^@@ -\d+(?:,(\d+))? \+\d+(?:,\d+)? @@`)
	for _, p := range patches {
		t.Run(strings.TrimSuffix(filepath.Base(p), ".patch"), func(t *testing.T) {
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
			tests, pkg := "^TestConfigLattice$", "./internal/mapreduce"
			for _, l := range lines {
				if strings.HasPrefix(l, "diff ") {
					break
				}
				if v, ok := strings.CutPrefix(l, "# test: "); ok {
					tests = v
				}
				if v, ok := strings.CutPrefix(l, "# pkg: "); ok {
					pkg = v
				}
			}
			re, err := regexp.Compile(tests)
			if err != nil {
				t.Fatalf("# test: %q: %v", tests, err)
			}
			if !slices.ContainsFunc(declaredTests(t, []string{pkg}), re.MatchString) {
				t.Errorf("# test: %q matches no test function in %s", tests, pkg)
			}

			var file []string // the target's lines
			var name string
			at, hunks := 0, 0 // where the next hunk may start; hunks checked
			for i := 0; i < len(lines); i++ {
				if v, ok := strings.CutPrefix(lines[i], "+++ "); ok {
					name = strings.TrimPrefix(v, "b/")
					if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
						t.Fatalf("%s: a mutant breaks non-test Go code only", name)
					}
					src, err := os.ReadFile(name)
					if err != nil {
						t.Fatal(err)
					}
					file, at = strings.Split(string(src), "\n"), 0
					continue
				}
				m := hunkHeader.FindStringSubmatch(lines[i])
				if m == nil {
					continue
				}
				if file == nil {
					t.Fatalf("line %d: hunk before any +++ line", i+1)
				}
				want := 1
				if m[1] != "" {
					want, _ = strconv.Atoi(m[1])
				}
				var old []string
				for i+1 < len(lines) && len(old) < want {
					l := lines[i+1]
					if l != "" && !strings.ContainsAny(l[:1], " -+\\") {
						break
					}
					i++
					switch {
					case l == "":
						old = append(old, "")
					case l[0] == ' ' || l[0] == '-':
						old = append(old, l[1:])
					}
				}
				if len(old) != want {
					t.Fatalf("%s: hunk %q has %d old lines, its header says %d", name, lines[i-len(old)], len(old), want)
				}
				hunks++
				found := -1
				for j := at; j+len(old) <= len(file); j++ {
					if slices.Equal(file[j:j+len(old)], old) {
						found = j
						break
					}
				}
				if found < 0 {
					t.Errorf("%s: no longer holds the old side of hunk %q", name, m[0])
					continue
				}
				at = found + len(old)
			}
			if hunks == 0 {
				t.Error("patch has no hunks")
			}
		})
	}
}

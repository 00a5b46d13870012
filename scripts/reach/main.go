// Command reach is the reachability gate of `make docs`. It type-checks every
// package of the module from source, follows references from every main.main
// and init, and prints each non-test package-level declaration under cmd/,
// internal/ and examples/ that no root reaches (bench/ and scripts/ contribute
// roots only). A method is reached once its receiver type is and an interface
// the type implements declares it: it could not be deleted on its own.
// scripts/reach/allow.txt keeps what tests of live behaviour need, one
// `path.Symbol  # reason` per line; an entry is a root, so its helpers need no
// entry. Exit 1 on an unlisted finding or a stale entry. Run from the root.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const module = "scikey"

// The interfaces package errors asserts to inside function bodies, where no
// package scope shows them. Spelled here because the interface scan in main
// collects every interface type module code writes down, this file included.
type (
	_ = interface{ Unwrap() error }
	_ = interface{ Is(error) bool }
	_ = interface{ As(any) bool }
)

// loader type-checks module packages from their directories into one shared
// types.Info, so an object has one identity for every importer, and hands
// everything else to the standard library's source importer.
type loader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files []*ast.File
	info  *types.Info
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != module && !strings.HasPrefix(path, module+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := "." + strings.TrimPrefix(path, module)
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	l.files = append(l.files, files...)
	l.pkgs[path], err = (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	return l.pkgs[path], err
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
}

func main() {
	l := &loader{fset: token.NewFileSet(), pkgs: map[string]*types.Package{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	fatal(filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if _, err := build.Default.ImportDir(p, 0); err != nil {
			return nil // no buildable non-test Go files here
		}
		_, err = l.Import(filepath.ToSlash(filepath.Join(module, p)))
		return err
	}))

	edges := map[types.Object][]types.Object{} // declaration -> module objects its source mentions
	names := map[types.Object]string{}         // reported declarations, as path.Symbol
	lines := map[types.Object]int{}            // and their length, doc comments excluded
	var work []types.Object                    // reached, edges not yet followed
	define := func(id *ast.Ident, n ast.Node) {
		obj := l.info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if use, ok := n.(*ast.Ident); ok {
				if to := l.info.Uses[use]; to != nil && to.Pkg() != nil && l.pkgs[to.Pkg().Path()] != nil {
					edges[obj] = append(edges[obj], to)
				}
			}
			return true
		})
		name := obj.Pkg().Path() + "." + id.Name
		if f, ok := obj.(*types.Func); ok {
			name = strings.NewReplacer("(", "", ")", "", "*", "").Replace(f.FullName()) // path.Type.Method
			if name == obj.Pkg().Path()+".init" || name == obj.Pkg().Path()+".main" && obj.Pkg().Name() == "main" {
				work = append(work, obj)
			}
		}
		name = strings.TrimPrefix(name, module+"/")
		if top, _, _ := strings.Cut(name, "/"); top == "cmd" || top == "internal" || top == "examples" {
			names[obj] = name
			lines[obj] = l.fset.Position(n.End()).Line - l.fset.Position(n.Pos()).Line + 1
		}
	}
	for _, f := range l.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				define(n.Name, n)
			case *ast.TypeSpec:
				define(n.Name, n)
			case *ast.ValueSpec:
				for _, id := range n.Names {
					define(id, n)
				}
			case *ast.File, *ast.GenDecl:
				return true
			}
			return false // package-level declarations only
		})
	}

	// Every interface a method could be called through: error, the ones
	// module code spells out, and every named interface of every package in
	// the import closure (fmt.Stringer, json.Marshaler, sort.Interface, ...).
	ifaces := map[*types.Interface]bool{}
	note := func(t types.Type) {
		if i, ok := t.Underlying().(*types.Interface); ok {
			ifaces[i] = true
		}
	}
	note(types.Universe.Lookup("error").Type())
	for _, tv := range l.info.Types {
		if tv.IsType() {
			note(tv.Type)
		}
	}
	var queue []*types.Package
	for _, p := range l.pkgs {
		queue = append(queue, p)
	}
	for seen := map[*types.Package]bool{}; len(queue) > 0; queue = queue[1:] {
		if p := queue[0]; !seen[p] {
			seen[p] = true
			queue = append(queue, p.Imports()...)
			for _, name := range p.Scope().Names() {
				note(p.Scope().Lookup(name).Type())
			}
		}
	}
	reached := map[types.Object]bool{}
	closure := func() {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			if reached[obj] {
				continue
			}
			reached[obj] = true
			work = append(work, edges[obj]...)
			// A reached type brings along each method an interface it
			// implements declares (promoted ones included): none of them
			// can be deleted on its own.
			if tn, ok := obj.(*types.TypeName); ok && !types.IsInterface(tn.Type()) {
				ptr := types.NewPointer(tn.Type())
				for i := range ifaces {
					if !types.Implements(ptr, i) {
						continue
					}
					for k := 0; k < i.NumMethods(); k++ {
						work = append(work, types.NewMethodSet(ptr).Lookup(i.Method(k).Pkg(), i.Method(k).Name()).Obj())
					}
				}
			}
		}
	}
	closure()
	unreached := map[string]types.Object{} // before the allowlist is applied
	total := 0
	for obj, name := range names {
		if !reached[obj] {
			unreached[name] = obj
			total += lines[obj]
		}
	}

	var problems []string
	allow, err := os.ReadFile("scripts/reach/allow.txt")
	fatal(err)
	for _, line := range strings.Split(string(allow), "\n") {
		name, _, _ := strings.Cut(line, "#")
		if name = strings.TrimSpace(name); unreached[name] != nil {
			work = append(work, unreached[name])
		} else if name != "" {
			problems = append(problems, "stale allowlist line: "+name+" is reachable or not declared")
		}
	}
	allowed := len(work)
	closure()
	for name, obj := range unreached {
		if !reached[obj] {
			problems = append(problems, fmt.Sprintf("unreachable: %s (%d lines)", name, lines[obj]))
		}
	}
	sort.Strings(problems)
	fmt.Print(strings.Join(append(problems, ""), "\n"))
	fmt.Printf("reach: %d declarations (%d lines) no main or init reaches; %d allowlisted\n", len(unreached), total, allowed)
	if len(problems) > 0 {
		os.Exit(1)
	}
}

package delaylb

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// testSupport lists the exports under internal/ that only tests call,
// tests of packages other than the one that declares them. Each value
// names those packages and what their tests use the export for.
var testSupport = map[string]string{
	"model.Allocation.Validate":   "core, discrete, dynamic, game, qp and runtime tests: feasibility of a dense plan",
	"model.Allocation.LoadsInto":  "core tests: loads folded into caller-owned scratch",
	"model.Allocation.L1Distance": "core and runtime tests: distance between two dense plans",
	"model.Allocation.Clone":      "core tests: keep an input plan across a mutating step",
	"model.OrgCosts":              "root-package tests: Result.OrgCosts equals the dense fold",
	"sparse.Matrix.Validate":      "core, descent, dynamic and qp tests: well-formedness of sparse rows",
	"sparse.Matrix.Set":           "dynamic and qp tests: sparse rows built entry by entry",
	"qp.QuadraticForm":            "root-package tests: ρᵀQρ + bᵀρ over the dense §III matrices",
	"qp.BuildB":                   "root-package tests: the linear term of the dense §III program",
	"qp.Flatten":                  "root-package tests: a plan as the QP variable vector",
	"qp.SparseResult.Dense":       "root-package, core and discrete tests: sparse solves against dense oracles",
}

// TestInternalExportsHaveProductionCallers type-checks the module and
// fails on every exported package-level name, and every exported method,
// declared under internal/ that no non-test file references. A method
// that implements a method of an interface declared in the module or in
// a package the module imports is exempt: it is reached through the
// interface. A testSupport entry is exempt only while no non-test file
// references it and the tests of another package do.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	l := loadModule(t)
	var paths []string
	for _, m := range []map[string][]*ast.File{l.files, l.tests, l.xtests} {
		for path := range m {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	paths = slices.Compact(paths)
	for _, path := range paths {
		if _, ok := l.files[path]; !ok {
			continue
		}
		if _, err := l.Import(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}
	used := map[types.Object]bool{}
	recordUses(used, l.info, "")
	testUsed := map[types.Object]bool{}
	for _, path := range paths {
		if err := l.testUses(path, testUsed); err != nil {
			t.Fatalf("type-check tests of %s: %v", path, err)
		}
	}
	ifaces := l.interfaces()

	exports := map[string]types.Object{}
	for _, path := range paths {
		rel, ok := strings.CutPrefix(path, "delaylb/internal/")
		if !ok || l.pkgs[path] == nil {
			continue
		}
		scope := l.pkgs[path].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			exports[rel+"."+name] = obj
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !implementsAny(named, m.Name(), ifaces) {
					exports[rel+"."+name+"."+m.Name()] = m
				}
			}
		}
	}

	var unused []string
	for name, obj := range exports {
		if _, listed := testSupport[name]; !used[obj] && !listed {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("internal/%s has no non-test caller: delete it, move it into a _test.go file, or list it in testSupport", name)
	}
	for name := range testSupport {
		obj, ok := exports[name]
		switch {
		case !ok:
			t.Errorf("testSupport entry %s names nothing exported under internal/: drop the entry", name)
		case used[obj]:
			t.Errorf("testSupport entry %s has a non-test caller now: drop the entry", name)
		case !testUsed[obj]:
			t.Errorf("testSupport entry %s is called by no other package's tests: move it into a _test.go file", name)
		}
	}
}

// moduleLoader type-checks the module's packages, and the standard
// library, from source.
type moduleLoader struct {
	fset   *token.FileSet
	files  map[string][]*ast.File // import path → non-test files
	tests  map[string][]*ast.File // import path → in-package test files
	xtests map[string][]*ast.File // import path → external test files
	pkgs   map[string]*types.Package
	std    types.Importer
	info   *types.Info // uses recorded while checking pkgs
}

// loadModule parses every Go file of the module outside bench/, testdata/
// and dot-directories.
func loadModule(t *testing.T) *moduleLoader {
	t.Helper()
	fset := token.NewFileSet()
	l := &moduleLoader{
		fset:   fset,
		files:  map[string][]*ast.File{},
		tests:  map[string][]*ast.File{},
		xtests: map[string][]*ast.File{},
		pkgs:   map[string]*types.Package{},
		std:    importer.ForCompiler(fset, "source", nil),
		info:   newInfo(),
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "delaylb"
		if dir := filepath.Dir(path); dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		switch {
		case !strings.HasSuffix(path, "_test.go"):
			l.files[pkg] = append(l.files[pkg], f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			l.xtests[pkg] = append(l.xtests[pkg], f)
		default:
			l.tests[pkg] = append(l.tests[pkg], f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// Import resolves a module package to the package its non-test files
// declare, and anything else to the standard library.
func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	files, ok := l.files[path]
	if !ok {
		return l.std.Import(path)
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// testUses type-checks the tests of the package at path and records in
// used every object of another package they reference. In-package tests
// are checked together with a fresh copy of the package's files.
func (l *moduleLoader) testUses(path string, used map[types.Object]bool) error {
	checks := map[string][]*ast.File{}
	if len(l.tests[path]) > 0 {
		checks[path] = append(slices.Clone(l.files[path]), l.tests[path]...)
	}
	if len(l.xtests[path]) > 0 {
		checks[path+"_test"] = l.xtests[path]
	}
	for checkPath, files := range checks {
		info := newInfo()
		if _, err := (&types.Config{Importer: l}).Check(checkPath, l.fset, files, info); err != nil {
			return err
		}
		recordUses(used, info, path)
	}
	return nil
}

// interfaces returns the interfaces declared in the module's packages and
// the exported ones of the packages they import, plus error.
func (l *moduleLoader) interfaces() []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	add := func(p *types.Package, exportedOnly bool) {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || (exportedOnly && !tn.Exported()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	imported := map[*types.Package]bool{}
	for _, p := range l.pkgs {
		add(p, false)
		for _, q := range p.Imports() {
			if _, inModule := l.files[q.Path()]; !inModule && !imported[q] {
				imported[q] = true
				add(q, true)
			}
		}
	}
	return ifaces
}

func newInfo() *types.Info {
	return &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// recordUses adds to dst every object info references, mapped to its
// generic origin, except those of the package at path skip.
func recordUses(dst map[types.Object]bool, info *types.Info, skip string) {
	add := func(obj types.Object) {
		if obj.Pkg() == nil || obj.Pkg().Path() != skip {
			dst[origin(obj)] = true
		}
	}
	for _, obj := range info.Uses {
		add(obj)
	}
	for _, sel := range info.Selections {
		add(sel.Obj())
	}
}

// implementsAny reports whether T or *T implements one of ifaces that has
// a method called name.
func implementsAny(t *types.Named, name string, ifaces []*types.Interface) bool {
	if t.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

// origin maps a use of an instantiated generic function, method or field
// to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

package integration

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports lists the exported functions and methods in internal/
// that no non-test code calls but a test of another behaviour needs to
// read production state. Each entry names the test that needs it.
var testOnlyExports = map[string]string{
	"statsdb.DB.TableNames":        "TestObserversDoNotPerturbSimulation",
	"statsdb.Table.Row":            "TestObserversDoNotPerturbSimulation",
	"statsdb.Table.IndexedColumns": "TestObservatorySchemasGolden",
}

// standardMethods are the method names of standard-library interfaces a
// type may implement without the module calling the method by name.
var standardMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// TestEveryExportHasACaller type-checks the module's non-test Go, with
// the end-to-end benchmark and the examples, and fails on each exported
// function or method in internal/ that only tests reach: such a path is
// a second way to do what production does, kept alive by its tests.
func TestEveryExportHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	s := &exportScan{
		root:         root,
		fset:         token.NewFileSet(),
		pkgs:         map[string]*types.Package{},
		used:         map[types.Object]bool{},
		ifaceMethods: map[string]bool{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil).(types.ImporterFrom)
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			if dir := filepath.Dir(path); len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		if _, err := s.Import("repro/" + filepath.ToSlash(rel)); err != nil {
			t.Fatal(err)
		}
	}

	var missing []string
	for path, pkg := range s.pkgs {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		short := strings.TrimPrefix(path, "repro/internal/")
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() && !s.used[obj] {
					missing = append(missing, short+"."+name)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !s.used[m] && !standardMethods[m.Name()] && !s.ifaceMethods[m.Name()] {
						missing = append(missing, short+"."+name+"."+m.Name())
					}
				}
			}
		}
	}
	sort.Strings(missing)
	var failed []string
	for _, m := range missing {
		if testOnlyExports[m] == "" {
			failed = append(failed, m)
		}
	}
	if len(failed) > 0 {
		t.Errorf("%d exports in internal/ have no non-test caller; delete them, or list each with the test that needs it:\n\t%s",
			len(failed), strings.Join(failed, "\n\t"))
	}
	for name := range testOnlyExports {
		if !contains(missing, name) {
			t.Errorf("allowlisted %s has a non-test caller or is gone; drop it from testOnlyExports", name)
		}
	}
}

func contains(list []string, s string) bool {
	i := sort.SearchStrings(list, s)
	return i < len(list) && list[i] == s
}

// exportScan type-checks the module's packages from source, recording
// every object non-test code refers to and the method names of every
// interface the module declares.
type exportScan struct {
	root         string
	fset         *token.FileSet
	std          types.ImporterFrom
	pkgs         map[string]*types.Package
	used         map[types.Object]bool
	ifaceMethods map[string]bool
}

func (s *exportScan) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

func (s *exportScan) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return s.std.ImportFrom(path, dir, mode)
	}
	if pkg, ok := s.pkgs[path]; ok {
		return pkg, nil
	}
	pkgDir := filepath.Join(s.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/")))
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(pkgDir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = pkg

	// A function's references to itself do not count as a caller.
	type span struct {
		obj      types.Object
		from, to token.Pos
	}
	var decls []span
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decls = append(decls, span{info.Defs[fd.Name], fd.Pos(), fd.End()})
			}
		}
	}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		self := false
		for _, d := range decls {
			if d.from <= id.Pos() && id.Pos() < d.to && d.obj == obj {
				self = true
				break
			}
		}
		if !self {
			s.used[obj] = true
		}
	}
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				s.ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	return pkg, nil
}

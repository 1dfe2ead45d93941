package integration

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
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
	"statsdb.Table.Schema":         "TestObservatorySchemasGolden",
}

// testOnlyFields lists the exported struct fields in internal/ that no
// non-test code writes but that stay for a reader outside the guard's
// reach. Each entry gives the reason.
var testOnlyFields = map[string]string{
	"factory.RunResult.Dropped": "e2ebench/campaign.go reads it; it goes with the benchmark's next change",
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
// function or method in internal/ that only tests reach, and on each
// exported field that only tests write: such a path, or such an input,
// is a second way to do what production does, kept alive by its tests.
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
		written:      map[*types.Var]bool{},
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

	var missing, unwritten []string
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
				if st, ok := named.Underlying().(*types.Struct); ok && obj.Exported() {
					for i := 0; i < st.NumFields(); i++ {
						f, tag := st.Field(i), reflect.StructTag(st.Tag(i))
						if !f.Exported() || f.Embedded() || s.written[f] {
							continue
						}
						if _, ok := tag.Lookup("db"); ok {
							continue
						}
						if _, ok := tag.Lookup("json"); ok {
							continue
						}
						unwritten = append(unwritten, short+"."+name+"."+f.Name())
					}
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
	checkAllowlist(t, missing, testOnlyExports, "testOnlyExports", "exports in internal/ that no non-test code calls")
	checkAllowlist(t, unwritten, testOnlyFields, "testOnlyFields", "exported fields in internal/ that no non-test code writes")
}

// checkAllowlist fails on each name in found that the allowlist does
// not name, and on each allowlisted name that found no longer holds.
func checkAllowlist(t *testing.T, found []string, allow map[string]string, allowName, what string) {
	t.Helper()
	sort.Strings(found)
	var failed []string
	for _, f := range found {
		if allow[f] == "" {
			failed = append(failed, f)
		}
	}
	if len(failed) > 0 {
		t.Errorf("%d %s; delete them, or list each in %s with the reason it stays:\n\t%s",
			len(failed), what, allowName, strings.Join(failed, "\n\t"))
	}
	for name := range allow {
		if !contains(found, name) {
			t.Errorf("%s lists %s, which is gone or no longer one of the %s; drop it", allowName, name, what)
		}
	}
}

func contains(list []string, s string) bool {
	i := sort.SearchStrings(list, s)
	return i < len(list) && list[i] == s
}

// exportScan type-checks the module's packages from source, recording
// every object non-test code refers to, every struct field it writes,
// and the method names of every interface the module declares.
type exportScan struct {
	root         string
	fset         *token.FileSet
	std          types.ImporterFrom
	pkgs         map[string]*types.Package
	used         map[types.Object]bool
	written      map[*types.Var]bool
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
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
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
	for _, f := range files {
		s.recordWrites(f, info)
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

// recordWrites marks each struct field that f writes: by a keyed or
// positional composite literal, as an assignment or inc/dec target, or
// by taking its address.
func (s *exportScan) recordWrites(f *ast.File, info *types.Info) {
	field := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if x, ok := info.Selections[sel]; ok && x.Kind() == types.FieldVal {
				s.written[x.Obj().(*types.Var).Origin()] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			st, ok := info.Types[n].Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						s.written[v.Origin()] = true
					}
				} else {
					s.written[st.Field(i).Origin()] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				field(lhs)
			}
		case *ast.IncDecStmt:
			field(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				field(n.X)
			}
		}
		return true
	})
}

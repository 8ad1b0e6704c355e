package fastcap

// TestExportedSurface holds the module to two rules, checked by type-
// checking every non-test package with the standard library alone:
//
//   - No dead code. An exported name of an internal/ package, or any
//     unexported package-level name, that no non-test file references
//     is a failure, unless testdata/test_hooks.txt lists it with the
//     test that uses it to observe or drive other code. A method counts
//     as referenced when it is selected anywhere or when any interface
//     of the module or of an imported standard package declares its
//     name. Struct fields are never judged: encoding/json reaches them
//     by reflection.
//   - The exported surface is a golden. testdata/api.txt holds one line
//     per exported name, method, interface method and struct field with
//     its type. On a mismatch the test rewrites the file and fails, so
//     `go test -run TestExportedSurface .` refreshes it and `git diff`
//     shows every export or config field a change adds or removes.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// scannedPkg is one type-checked package of the module.
type scannedPkg struct {
	path  string // import path
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// moduleScan type-checks a module's non-test packages, each once, in
// dependency order; standard-library imports are type-checked from
// source by one shared importer.
type moduleScan struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path → directory
	pkgs map[string]*scannedPkg
}

// moduleDirs lists, by import path, every directory under root that
// holds non-test .go files, skipping what the go tool skips: testdata,
// and directories whose name starts with "." or "_".
func moduleDirs(root, modPath string) (map[string]string, error) {
	dirs := map[string]string{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			rel, err := filepath.Rel(root, filepath.Dir(p))
			if err != nil {
				return err
			}
			dirs[path.Join(modPath, filepath.ToSlash(rel))] = filepath.Dir(p)
		}
		return nil
	})
	return dirs, err
}

func scanModule(root string) (*moduleScan, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("%s/go.mod names no module", root)
	}
	dirs, err := moduleDirs(root, modPath)
	if err != nil {
		return nil, err
	}
	// With cgo off the standard packages that have cgo variants (net,
	// os/user) are type-checked from their pure-Go files, so the source
	// importer never runs `go tool cgo`. Their exported API is the same.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	s := &moduleScan{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		dirs: dirs,
		pkgs: map[string]*scannedPkg{},
	}
	for _, p := range slices.Sorted(maps.Keys(dirs)) {
		if _, err := s.load(p); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Import loads module packages itself and hands the rest to the
// standard-library importer.
func (s *moduleScan) Import(p string) (*types.Package, error) {
	if _, ok := s.dirs[p]; ok {
		sp, err := s.load(p)
		if err != nil {
			return nil, err
		}
		return sp.pkg, nil
	}
	return s.std.Import(p)
}

func (s *moduleScan) load(p string) (*scannedPkg, error) {
	if sp, ok := s.pkgs[p]; ok {
		return sp, nil
	}
	dir := s.dirs[p]
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(p, s.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", p, err)
	}
	sp := &scannedPkg{path: p, files: files, pkg: pkg, info: info}
	s.pkgs[p] = sp
	return sp, nil
}

// origin maps an instantiated generic function, method or field to
// the object its declaration defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// span is a source range whose references to an object do not count:
// the object's own declaration, and the receivers of a type's methods.
type span struct{ from, to token.Pos }

// deadNames lists, sorted, the judged names that no non-test file
// references from outside their own declaration.
func (s *moduleScan) deadNames() []string {
	ifaceNames := map[string]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceNames[it.Method(i).Name()] = true
			}
		}
	}
	own := map[types.Object][]span{}
	for _, sp := range s.pkgs {
		for _, tv := range sp.info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		for _, f := range sp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := sp.info.Defs[d.Name]
					own[obj] = append(own[obj], span{d.Pos(), d.End()})
					if d.Recv != nil {
						recv := d.Recv.List[0].Type
						if named := recvNamed(sp.info.Types[recv].Type); named != nil {
							tn := named.Obj()
							own[tn] = append(own[tn], span{recv.Pos(), recv.End()})
						}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							obj := sp.info.Defs[spec.Name]
							own[obj] = append(own[obj], span{spec.Pos(), spec.End()})
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								obj := sp.info.Defs[n]
								own[obj] = append(own[obj], span{spec.Pos(), spec.End()})
							}
						}
					}
				}
			}
		}
	}
	for _, sp := range s.pkgs {
		for _, imp := range sp.pkg.Imports() {
			if _, ok := s.pkgs[imp.Path()]; ok {
				continue
			}
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn.Type())
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for _, sp := range s.pkgs {
		for id, obj := range sp.info.Uses {
			obj = origin(obj)
			if !slices.ContainsFunc(own[obj], func(r span) bool { return r.from <= id.Pos() && id.Pos() < r.to }) {
				used[obj] = true
			}
		}
	}

	var dead []string
	for _, sp := range s.pkgs {
		internal := strings.Contains(sp.path+"/", "/internal/")
		scope := sp.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			judged := !obj.Exported() && name != "main" && name != "init" && name != "_" ||
				obj.Exported() && internal
			if judged && !used[obj] {
				dead = append(dead, sp.path+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || !internal || !obj.Exported() || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !ifaceNames[m.Name()] {
					dead = append(dead, sp.path+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(dead)
	return dead
}

// recvNamed returns the named type of a method receiver.
func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// readHooks parses a test_hooks.txt: one "name reason" per line, with
// blank lines and #-comments ignored. A hook without a reason is an
// error.
func readHooks(file string) (map[string]string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	hooks := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s: hook %s gives no reason", file, name)
		}
		hooks[name] = strings.TrimSpace(reason)
	}
	return hooks, nil
}

// judge splits the dead names into those no hook justifies, and lists
// the stale hooks: entries that name nothing dead, because the name is
// gone or because non-test code now uses it.
func judge(dead []string, hooks map[string]string) (unjustified, stale []string) {
	isDead := map[string]bool{}
	for _, name := range dead {
		isDead[name] = true
		if _, ok := hooks[name]; !ok {
			unjustified = append(unjustified, name)
		}
	}
	for name := range hooks {
		if !isDead[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	return unjustified, stale
}

// surface renders the exported surface, one sorted line per exported
// name, method, interface method and struct field.
func (s *moduleScan) surface() []string {
	var lines []string
	for _, sp := range s.pkgs {
		pkg := sp.pkg
		qual := func(p *types.Package) string {
			if p == pkg {
				return ""
			}
			return p.Name()
		}
		str := func(t types.Type) string { return types.TypeString(t, qual) }
		sig := func(t types.Type) string {
			var b bytes.Buffer
			types.WriteSignature(&b, t.(*types.Signature), qual)
			return b.String()
		}
		add := func(format string, args ...any) {
			lines = append(lines, "pkg "+sp.path+", "+fmt.Sprintf(format, args...))
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			switch obj := obj.(type) {
			case *types.Const:
				add("const %s %s = %s", name, str(obj.Type()), obj.Val())
			case *types.Var:
				add("var %s %s", name, str(obj.Type()))
			case *types.Func:
				add("func %s%s", name, sig(obj.Type()))
			case *types.TypeName:
				if obj.IsAlias() {
					add("type %s = %s", name, str(obj.Type()))
					continue
				}
				named := obj.Type().(*types.Named)
				switch u := named.Underlying().(type) {
				case *types.Struct:
					add("type %s struct", name)
					for i := 0; i < u.NumFields(); i++ {
						if f := u.Field(i); f.Exported() {
							if f.Embedded() {
								add("type %s struct, embedded %s", name, str(f.Type()))
							} else {
								add("type %s struct, %s %s", name, f.Name(), str(f.Type()))
							}
						}
					}
				case *types.Interface:
					add("type %s interface", name)
					for i := 0; i < u.NumMethods(); i++ {
						if m := u.Method(i); m.Exported() {
							add("type %s interface, %s%s", name, m.Name(), sig(m.Type()))
						}
					}
				default:
					add("type %s %s", name, str(u))
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						recv := m.Type().(*types.Signature).Recv().Type()
						add("method (%s) %s%s", str(recv), m.Name(), sig(m.Type()))
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return lines
}

func TestExportedSurface(t *testing.T) {
	s, err := scanModule(".")
	if err != nil {
		t.Fatal(err)
	}
	// A package that was never type-checked would pass every check
	// below, so count the directories again, independently.
	var withGo int
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		matches, _ := filepath.Glob(filepath.Join(p, "*.go"))
		if slices.ContainsFunc(matches, func(m string) bool { return !strings.HasSuffix(m, "_test.go") }) {
			withGo++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.pkgs) != withGo {
		t.Fatalf("type-checked %d packages, but %d directories hold non-test .go files", len(s.pkgs), withGo)
	}

	hooks, err := readHooks(filepath.Join("testdata", "test_hooks.txt"))
	if err != nil {
		t.Fatal(err)
	}
	unjustified, stale := judge(s.deadNames(), hooks)
	for _, name := range unjustified {
		t.Errorf("%s: no non-test file references it; delete it, or list it in testdata/test_hooks.txt with the test that needs it", name)
	}
	for _, name := range stale {
		t.Errorf("testdata/test_hooks.txt: %s is gone or used by non-test code; drop the entry", name)
	}

	apiFile := filepath.Join("testdata", "api.txt")
	want := strings.Join(s.surface(), "\n") + "\n"
	got, err := os.ReadFile(apiFile)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if string(got) != want {
		if err := os.WriteFile(apiFile, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("the exported surface differs from %s; the file is rewritten, review it with git diff", apiFile)
	}
}

// TestSurfaceScannerFixture runs the scanner over a planted module:
// every kind of dead code and stale hook must be reported, and a
// method kept alive only by an interface must not.
func TestSurfaceScannerFixture(t *testing.T) {
	root := filepath.Join("testdata", "surface")
	s, err := scanModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.pkgs) != 2 {
		t.Fatalf("fixture: type-checked %d packages, want 2", len(s.pkgs))
	}
	hooks, err := readHooks(filepath.Join(root, "test_hooks.txt"))
	if err != nil {
		t.Fatal(err)
	}
	unjustified, stale := judge(s.deadNames(), hooks)
	const lib = "fixture/internal/lib."
	wantDead := []string{lib + "Dead", lib + "Square.Perimeter", lib + "unusedHelper"}
	if !slices.Equal(unjustified, wantDead) {
		t.Errorf("dead names = %q, want %q", unjustified, wantDead)
	}
	wantStale := []string{lib + "Gone", lib + "NowUsed"}
	if !slices.Equal(stale, wantStale) {
		t.Errorf("stale hooks = %q, want %q", stale, wantStale)
	}
	surface := s.surface()
	for _, line := range []string{
		"pkg fixture/internal/lib, type Square struct, Side float64",
		"pkg fixture/internal/lib, method (Square) Area() float64",
		"pkg fixture/internal/lib, type Shape interface, Area() float64",
	} {
		if !slices.Contains(surface, line) {
			t.Errorf("surface lacks %q", line)
		}
	}
}

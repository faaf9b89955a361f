package ssa

import (
	"fmt"
	"go/ast"
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

// modPath is the import path of the module this checker analyzes. The
// loader is module-aware so it stays stdlib-only: the source importer that
// ships with go/importer resolves GOROOT packages but knows nothing about
// modules, so imports under this prefix are typechecked from the local
// tree instead.
const modPath = "shootdown"

// Package is one typechecked package of the module.
type Package struct {
	// Path is the import path ("shootdown/internal/mm").
	Path string
	// Dir is the module-relative directory ("internal/mm", "." for root).
	Dir string
	// Files holds the parsed non-test sources, ordered by file name.
	Files []*ast.File
	// FileNames holds the module-relative path of each Files entry.
	FileNames []string
	// Types is the typechecked package object.
	Types *types.Package
	// Info carries the resolved type information for every file.
	Info *types.Info
}

// Module is the fully loaded and typechecked target of the analyzers.
type Module struct {
	// Root is the absolute module root directory.
	Root string
	// Fset positions every parsed file (module and GOROOT sources alike).
	Fset *token.FileSet
	// Pkgs lists the module packages sorted by import path.
	Pkgs []*Package

	byPath map[string]*Package
	std    types.Importer
}

// Lookup returns the loaded package with the given import path, or nil.
func (m *Module) Lookup(path string) *Package { return m.byPath[path] }

// newInfo returns a types.Info with every map the analyzers need.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// LoadModule discovers, parses and typechecks every non-test package under
// the module root (ascending from the working directory to the nearest
// go.mod).
func LoadModule() (*Module, error) {
	root, err := findModuleRoot()
	if err != nil {
		return nil, err
	}
	return LoadModuleAt(root)
}

// LoadModuleAt loads the module rooted at dir.
func LoadModuleAt(dir string) (*Module, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:   root,
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
	}
	// The "source" importer typechecks GOROOT dependencies from source, so
	// no compiled export data is needed (the toolchain no longer ships it).
	m.std = importer.ForCompiler(m.Fset, "source", nil)

	dirs, err := m.packageDirs()
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		if _, err := m.load(m.importPathOf(d)); err != nil {
			return nil, err
		}
	}
	for _, p := range m.byPath {
		m.Pkgs = append(m.Pkgs, p)
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })
	return m, nil
}

// packageDirs walks the tree for directories holding non-test .go files.
func (m *Module) packageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(m.Root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != m.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
			dirs = append(dirs, dir)
		}
		return nil
	})
	return dirs, err
}

// importPathOf maps an absolute directory to its module import path.
func (m *Module) importPathOf(dir string) string {
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil || rel == "." {
		return modPath
	}
	return modPath + "/" + filepath.ToSlash(rel)
}

// dirOf maps a module import path to its absolute directory.
func (m *Module) dirOf(path string) string {
	if path == modPath {
		return m.Root
	}
	return filepath.Join(m.Root, filepath.FromSlash(strings.TrimPrefix(path, modPath+"/")))
}

// Import implements types.Importer: module-internal paths load from the
// local tree; everything else delegates to the GOROOT source importer.
func (m *Module) Import(path string) (*types.Package, error) {
	if path == modPath || strings.HasPrefix(path, modPath+"/") {
		p, err := m.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return m.std.Import(path)
}

// load parses and typechecks one module package (memoized).
func (m *Module) load(path string) (*Package, error) {
	if p, ok := m.byPath[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("ssa: import cycle through %s", path)
		}
		return p, nil
	}
	m.byPath[path] = nil // cycle guard
	dir := m.dirOf(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(m.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		rel, _ := filepath.Rel(m.Root, full)
		names = append(names, filepath.ToSlash(rel))
	}
	if len(files) == 0 {
		delete(m.byPath, path)
		return nil, fmt.Errorf("ssa: no Go files in %s", dir)
	}
	p := &Package{Path: path, Files: files, FileNames: names, Info: newInfo()}
	if p.Dir, err = filepath.Rel(m.Root, dir); err != nil {
		p.Dir = "."
	}
	p.Dir = filepath.ToSlash(p.Dir)
	cfg := types.Config{Importer: m}
	p.Types, err = cfg.Check(path, m.Fset, files, p.Info)
	if err != nil {
		return nil, fmt.Errorf("ssa: typecheck %s: %v", path, err)
	}
	m.byPath[path] = p
	return p, nil
}

// LoadFixture typechecks one extra file (a testdata fixture) against the
// already-loaded module, returning it as a synthetic package. The fixture
// may import any module or GOROOT package.
func (m *Module) LoadFixture(file string) (*Package, error) {
	full, err := filepath.Abs(file)
	if err != nil {
		return nil, err
	}
	f, err := parser.ParseFile(m.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(m.Root, full)
	if err != nil {
		rel = filepath.Base(full)
	}
	p := &Package{
		Path:      modPath + "/fixture/" + f.Name.Name,
		Dir:       filepath.ToSlash(filepath.Dir(rel)),
		Files:     []*ast.File{f},
		FileNames: []string{filepath.ToSlash(rel)},
		Info:      newInfo(),
	}
	cfg := types.Config{Importer: m}
	if p.Types, err = cfg.Check(p.Path, m.Fset, p.Files, p.Info); err != nil {
		return nil, fmt.Errorf("ssa: typecheck fixture %s: %v", file, err)
	}
	return p, nil
}

// findModuleRoot ascends from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("ssa: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// --- shared typed helpers ---

// FileOf returns the file (and its module-relative name) containing pos.
func (p *Package) FileOf(pos token.Pos) (*ast.File, string) {
	for i, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f, p.FileNames[i]
		}
	}
	return nil, ""
}

// FuncDecl pairs a declaration with its package for module-wide passes.
type FuncDecl struct {
	Pkg  *Package
	File string
	Decl *ast.FuncDecl
	Obj  *types.Func
}

// allFuncs lists every function declaration with a body across pkgs, in
// deterministic (package, file, source) order.
func allFuncs(pkgs []*Package) []FuncDecl {
	var out []FuncDecl
	for _, p := range pkgs {
		for i, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := p.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				out = append(out, FuncDecl{Pkg: p, File: p.FileNames[i], Decl: fd, Obj: obj})
			}
		}
	}
	return out
}

// unwrap strips parentheses and value-preserving conversions, so
// "uint64(x)" and "(x)" alias x for whole-argument matching.
func unwrap(info *types.Info, e ast.Expr) ast.Expr {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.CallExpr:
			// A conversion parses as a call whose Fun is a type.
			if len(v.Args) == 1 && info.Types[v.Fun].IsType() {
				e = v.Args[0]
				continue
			}
			return e
		default:
			return e
		}
	}
}

// calleeFunc resolves a call to its *types.Func (methods, interface
// methods and plain functions). Returns nil for builtins, conversions and
// function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// identObj resolves an expression to the variable object it denotes
// (plain identifiers only; selectors and index expressions return nil).
func identObj(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.ObjectOf(id).(*types.Var)
	return v
}

// namedType unwraps pointers and returns the named type of t, or nil.
func namedType(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t (after pointer unwrap) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// buildImplMap maps each interface method declared in the module to the
// concrete module methods implementing it.
func buildImplMap(pkgs []*Package) map[*types.Func][]*types.Func {
	out := make(map[*types.Func][]*types.Func)
	var ifaces []*types.Named
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				if _, isIface := n.Underlying().(*types.Interface); isIface {
					ifaces = append(ifaces, n)
				}
			}
		}
	}
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			for _, in := range ifaces {
				iface := in.Underlying().(*types.Interface)
				if !types.Implements(types.NewPointer(named), iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					impl, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, p.Types, m.Name())
					if fn, ok := impl.(*types.Func); ok {
						out[m] = append(out[m], fn)
					}
				}
			}
		}
	}
	return out
}

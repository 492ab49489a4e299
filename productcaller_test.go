package bonsai_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// productAllowlist names the functions that may stay although no product
// root reaches them. A reason says which of the three kinds the function is:
// "oracle:" (a reference a test compares the product path against), "seam:"
// (a fault or measurement lever a test pulls), or "ROADMAP <item>:" (the
// open item that will give it a product caller).
var productAllowlist = map[string]string{
	"internal/bdd.(*Manager).Eval":                         "oracle: the truth-table reference the BDD operations are checked against",
	"internal/policy.(*Compiler).Apply":                    "oracle: the probe the property tests run a compiled relation through",
	"internal/srp.MapAttr":                                 "oracle: the attribute mapping internal/oracle compares solutions through",
	"internal/build.(*Builder).CompressFresh":              "oracle: the section 10.3 reference every shared or transported abstraction is compared with",
	"internal/build.(*Builder).InvalidateAbstractionCache": "seam: the lever the benchmarks pull to time a cold compression",
	"internal/faultinject.Reset":                           "seam: clears every armed fault between tests",
}

var allowlistReason = regexp.MustCompile(`^(oracle|seam|ROADMAP \d+(\([a-z]\))?): \S`)

// TestEveryFunctionHasAProductCaller: every function and method outside a
// _test.go file must be reached from a product root, or be named in
// productAllowlist with a reason; an allowlist entry that gained a product
// caller, or names nothing, is stale. The roots are the mains of cmd/* and
// examples/*, the frozen benchmark module under bench/, the root package's
// exported API, package initialisers, and every method that implements an
// interface method reached code calls or the standard library may call. The
// test-only internal/oracle is neither checked nor counted as a caller.
//
// The scan type-checks this module's and bench/'s non-test sources with
// go/types, importing the standard library from `go list -export` data.
func TestEveryFunctionHasAProductCaller(t *testing.T) {
	for key, reason := range productAllowlist {
		if !allowlistReason.MatchString(reason) {
			t.Errorf("allowlist %s: reason %q is not an oracle, a seam or a ROADMAP item", key, reason)
		}
	}
	l := newLedger(t)
	reached := l.reach(productAllowlist)

	var unreached []string
	found := map[string]bool{}
	for f, d := range l.decls {
		if d.pkg.bench || d.pkg.path == oraclePath {
			continue
		}
		key := funcKey(f)
		found[key] = true
		_, allowed := productAllowlist[key]
		switch {
		case reached[f] && allowed:
			t.Errorf("allowlist %s is stale: a product root or another allowlisted function reaches it", key)
		case !reached[f] && !allowed:
			pos := l.fset.Position(d.decl.Pos())
			unreached = append(unreached, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, key))
		}
	}
	for key := range productAllowlist {
		if !found[key] {
			t.Errorf("allowlist %s is stale: no such function", key)
		}
	}
	slices.Sort(unreached)
	for _, u := range unreached {
		t.Errorf("only tests reach %s", u)
	}
}

// ledgerPkg is the part of `go list -json` output the ledger reads.
type ledgerPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// funcDecl is a function declared in a checked package.
type funcDecl struct {
	decl *ast.FuncDecl
	pkg  *ledgerUnit
}

// ledgerUnit is one package type-checked from source.
type ledgerUnit struct {
	path  string
	name  string
	bench bool
	info  *types.Info
	types *types.Package
	files []*ast.File
}

// ledger holds the type-checked packages of this module and of bench/, and
// the standard-library packages they import.
type ledger struct {
	fset  *token.FileSet
	units []*ledgerUnit
	decls map[*types.Func]*funcDecl
	std   []*types.Package
}

const oraclePath = "bonsai/internal/oracle"

// goList lists the packages of the module in dir and everything they
// import, each after its dependencies, with export data for the standard
// library.
func goList(t *testing.T, dir string) []ledgerPkg {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Name,Dir,GoFiles,Export,Standard", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []ledgerPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p ledgerPkg
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

func newLedger(t *testing.T) *ledger {
	l := &ledger{fset: token.NewFileSet(), decls: map[*types.Func]*funcDecl{}}
	exports := map[string]string{}
	source := map[string]*types.Package{}
	gc := importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := source[path]; p != nil {
			return p, nil
		}
		p, err := gc.Import(path)
		if err == nil && !slices.Contains(l.std, p) {
			l.std = append(l.std, p)
		}
		return p, err
	})
	pkgs := goList(t, ".")
	pkgs = append(pkgs, goList(t, "bench")...)
	for _, p := range pkgs {
		if p.Standard {
			exports[p.ImportPath] = p.Export
			continue
		}
		if source[p.ImportPath] != nil {
			continue
		}
		u := &ledgerUnit{path: p.ImportPath, name: p.Name, bench: strings.HasPrefix(p.ImportPath, "bonsai/bench")}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(l.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			u.files = append(u.files, f)
		}
		u.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		var err error
		if u.types, err = conf.Check(p.ImportPath, l.fset, u.files, u.info); err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		source[p.ImportPath] = u.types
		l.units = append(l.units, u)
		for _, f := range u.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := u.info.Defs[fd.Name].(*types.Func); ok {
						l.decls[fn] = &funcDecl{decl: fd, pkg: u}
					}
				}
			}
		}
	}
	return l
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// funcKey names a function as the allowlist does: the import path without
// the module prefix, then Name, Type.Name or (*Type).Name.
func funcKey(f *types.Func) string {
	pkg := strings.TrimPrefix(f.Pkg().Path(), "bonsai/")
	switch recv := recvName(f); {
	case recv == "":
		return pkg + "." + f.Name()
	case recv[0] == '*':
		return pkg + ".(" + recv + ")." + f.Name()
	default:
		return pkg + "." + recv + "." + f.Name()
	}
}

// recvName returns the name of the type f is a method of, starred for a
// pointer receiver, or "" if f is a function.
func recvName(f *types.Func) string {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	if p, ok := recv.Type().(*types.Pointer); ok {
		return "*" + p.Elem().(*types.Named).Obj().Name()
	}
	return recv.Type().(*types.Named).Obj().Name()
}

// uses returns the functions and methods n refers to.
func uses(info *types.Info, n ast.Node) []*types.Func {
	var fs []*types.Func
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if f, ok := info.Uses[id].(*types.Func); ok {
				fs = append(fs, f.Origin())
			}
		}
		return true
	})
	return fs
}

// reach returns every function the product roots reach, or the functions
// allowed names call: an allowlisted function's callees serve it, but it is
// itself reached only if something else calls it.
func (l *ledger) reach(allowed map[string]string) map[*types.Func]bool {
	reached := map[*types.Func]bool{}
	var work []*types.Func
	mark := func(fs ...*types.Func) {
		for _, f := range fs {
			if !reached[f] {
				reached[f] = true
				work = append(work, f)
			}
		}
	}
	var named []*types.Named
	for _, u := range l.units {
		if u.path == oraclePath {
			continue
		}
		for _, name := range u.types.Scope().Names() {
			if tn, ok := u.types.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
		for _, f := range u.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					mark(uses(u.info, d)...) // package-level initialisers
				case *ast.FuncDecl:
					fn := u.info.Defs[d.Name].(*types.Func)
					if d.Recv == nil && (d.Name.Name == "init" || u.name == "main" && d.Name.Name == "main") {
						mark(fn)
					}
					if u.path == "bonsai" && fn.Exported() && (d.Recv == nil || token.IsExported(strings.TrimPrefix(recvName(fn), "*"))) {
						mark(fn)
					}
					if _, ok := allowed[funcKey(fn)]; ok {
						for _, g := range uses(u.info, d) {
							if g != fn {
								mark(g)
							}
						}
					}
				}
			}
		}
	}
	// The standard library calls the methods of its interfaces (error,
	// fmt.Stringer, sort.Interface, http.Handler, ...) on whatever it is
	// handed, so every one of them counts as called.
	called := map[*types.Func]bool{}
	var ifaces []*types.Interface
	addIface := func(it *types.Interface) {
		if it.IsMethodSet() && it.NumMethods() > 0 && !slices.Contains(ifaces, it) {
			ifaces = append(ifaces, it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, p := range l.std {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for m := range it.Methods() {
						called[m] = true
					}
					addIface(it)
				}
			}
		}
	}
	implemented := func() {
		for _, it := range ifaces {
			for _, n := range named {
				for _, t := range []types.Type{n, types.NewPointer(n)} {
					if !types.Implements(t, it) {
						continue
					}
					for m := range it.Methods() {
						if !called[m] {
							continue
						}
						if sel := types.NewMethodSet(t).Lookup(m.Pkg(), m.Name()); sel != nil {
							mark(sel.Obj().(*types.Func).Origin())
						}
					}
				}
			}
		}
	}
	implemented()
	for len(work) > 0 {
		for len(work) > 0 {
			f := work[len(work)-1]
			work = work[:len(work)-1]
			if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				if !called[f] {
					called[f] = true
					addIface(recv.Type().Underlying().(*types.Interface))
				}
				continue
			}
			if d := l.decls[f]; d != nil && d.pkg.path != oraclePath {
				mark(uses(d.pkg.info, d.decl)...)
			}
		}
		implemented()
	}
	return reached
}

package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestEveryDeclarationIsUsed is the module's "used by a program" gate.
// Every top-level func, type, var and const in non-test code, and every
// method, must be referenced outside its own declaration: from non-test
// code of the module or of bench/, or from a root test file (the Examples
// and the facade's tests). A test of a package does not keep that
// package's code alive, so a declaration only its own tests reach fails.
//
// Exempt are main and init, a method whose name and signature match a
// method of an interface in the loaded packages or the standard library
// (it may be called only through that interface), and a declaration
// marked //lint:allow unused <reason> on its line or the line above. A
// directive on a declaration that is referenced is reported as stale.
// Struct fields are not checked.
func TestEveryDeclarationIsUsed(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain via go list")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// One load covers both modules: go list run from bench/ resolves the
	// root module through bench's replace directive.
	fset := token.NewFileSet()
	pkgs, err := LoadInto(fset, filepath.Join(root, "bench"), []string{"./...", Module + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	tests, err := checkRootTests(fset, root, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if findings := unusedDecls(fset, root, pkgs, tests); len(findings) > 0 {
		t.Errorf("%d declarations are referenced by no program, bench workload or root test; delete them, move them into a _test.go file, or mark them //lint:allow unused <reason>:\n%s",
			len(findings), strings.Join(findings, "\n"))
	}
}

// TestUnusedRules pins the gate's rule on a fixture: what counts as a
// reference, what is exempt, and when a directive is stale.
func TestUnusedRules(t *testing.T) {
	pkgs := typecheckFixtures(t, 1, fixturePkg{path: Module + "/internal/fixture", src: `package fixture

type Used struct{ n int }

type OnlyReceiver struct{}

func (OnlyReceiver) touch() {}

func (u Used) Error() string { return "" }

func (u *Used) helper() int { return u.n }

func Entry() int { return (&Used{}).helper() }

func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

const (
	A = iota
	B = A + 1
	C = C0
)

const C0 = 2

//lint:allow unused fixture oracle
func Oracle() {}

//lint:allow unused wrongly claimed
func Claimed() int { return B }

func init() { _ = Claimed() }

//lint:allow unused nothing here
`})
	got := unusedDecls(testFset, "", pkgs, nil)
	file := testFset.Position(pkgs[0].Files[0].Pos()).Filename
	want := []string{
		file + ":5: fixture.OnlyReceiver",
		file + ":7: fixture.OnlyReceiver.touch",
		file + ":13: fixture.Entry",
		file + ":15: fixture.Recursive",
		file + ":25: fixture.C",
		file + ":33: stale //lint:allow unused: fixture.Claimed is referenced",
		file + ":38: stale //lint:allow unused: it covers no declaration",
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// checkRootTests type-checks the root package's _test.go files against
// the loaded packages: the package openspace files together with the
// package's own files, and the package openspace_test files (the
// Examples) as an external test package importing that result. Each
// returned Package holds only the test files, whose references are what
// the gate needs.
func checkRootTests(fset *token.FileSet, root string, pkgs []*Package) ([]*Package, error) {
	im := &sourceImporter{fset: fset, pkgs: map[string]*types.Package{}}
	var rootPkg *Package
	for _, pkg := range pkgs {
		im.add(pkg.Types)
		if pkg.PkgPath == Module {
			rootPkg = pkg
		}
	}
	if rootPkg == nil {
		return nil, fmt.Errorf("root package %s not loaded", Module)
	}
	paths, err := filepath.Glob(filepath.Join(root, "*_test.go"))
	if err != nil {
		return nil, err
	}
	byPkg := map[string][]*ast.File{}
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return nil, err
		}
		byPkg[f.Name.Name] = append(byPkg[f.Name.Name], f)
	}
	var out []*Package
	for _, name := range []string{rootPkg.Types.Name(), rootPkg.Types.Name() + "_test"} {
		files := byPkg[name]
		if len(files) == 0 {
			continue
		}
		path, all := Module, append(slices.Clip(rootPkg.Files), files...)
		if strings.HasSuffix(name, "_test") {
			path, all = Module+"_test", files
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		tpkg, err := (&types.Config{Importer: im}).Check(path, fset, all, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking root tests of %s: %v", path, err)
		}
		// The external tests import the package with its test files, as
		// go test builds it.
		im.pkgs[path] = tpkg
		out = append(out, &Package{PkgPath: path, Files: files, Types: tpkg, Info: info})
	}
	return out, nil
}

// sourceImporter resolves the root tests' imports. Every package the
// loader checked, and every standard package those reached, resolves to
// the loader's own object, so the tests and the code they call agree on
// type identity; a standard package only the tests import (testing,
// go/doc) is type-checked from GOROOT source against the same map.
type sourceImporter struct {
	fset *token.FileSet
	pkgs map[string]*types.Package
}

// add records pkg and, transitively, everything it imports.
func (im *sourceImporter) add(pkg *types.Package) {
	if _, ok := im.pkgs[pkg.Path()]; ok {
		return
	}
	im.pkgs[pkg.Path()] = pkg
	for _, dep := range pkg.Imports() {
		im.add(dep)
	}
}

func (im *sourceImporter) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, "", 0)
}

func (im *sourceImporter) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := im.pkgs[path]; ok {
		return pkg, nil
	}
	ctx := build.Default
	ctx.CgoEnabled = false
	bp, err := ctx.Import(path, dir, 0)
	if err != nil {
		return nil, err
	}
	if pkg, ok := im.pkgs[bp.ImportPath]; ok {
		return pkg, nil
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(im.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: im}).Check(bp.ImportPath, im.fset, files, nil)
	if err != nil {
		return nil, err
	}
	im.pkgs[bp.ImportPath] = pkg
	return pkg, nil
}

// unusedDecls applies the gate's rule to the root packages of pkgs, with
// references from tests counted as well, and returns each finding as
// "file:line: pkg.Recv.Name" (file relative to root), sorted by file and
// line.
func unusedDecls(fset *token.FileSet, root string, pkgs, tests []*Package) []string {
	used := map[token.Pos]bool{}
	ifaces := map[string][]*types.Signature{}
	seen := map[*types.Package]bool{}
	addIfaces(types.Universe, ifaces)
	for _, pkg := range pkgs {
		walkImports(pkg.Types, seen, ifaces)
		if pkg.Root {
			markUses(pkg, used)
		}
	}
	for _, pkg := range tests {
		walkImports(pkg.Types, seen, ifaces)
		markUses(pkg, used)
	}

	known := map[string]bool{unusedDirective: true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	type lineKey struct {
		file string
		line int
	}
	allowed := map[lineKey]*allowDirective{}
	var dirs []*allowDirective
	type finding struct {
		pos token.Position
		msg string
	}
	var findings []finding
	names := map[*allowDirective][]string{} // referenced declarations a directive covers
	for _, pkg := range pkgs {
		if !pkg.Root {
			continue
		}
		var malformed []Diagnostic // RunAnalyzers reports these
		for _, d := range directives(fset, pkg, known, &malformed) {
			if d.analyzer == unusedDirective {
				dirs = append(dirs, d)
				for _, l := range []int{d.pos.Line, d.pos.Line + 1} {
					allowed[lineKey{d.pos.Filename, l}] = d
				}
			}
		}
		check := func(id *ast.Ident, recv string) {
			obj := pkg.Info.Defs[id]
			if id.Name == "_" || obj == nil {
				return
			}
			pos := fset.Position(id.Pos())
			name := pkg.Types.Name() + "." + recv + id.Name
			dir := allowed[lineKey{pos.Filename, pos.Line}]
			switch {
			case !used[obj.Pos()] && dir != nil:
				dir.used = true
			case !used[obj.Pos()]:
				findings = append(findings, finding{pos, name})
			case dir != nil:
				names[dir] = append(names[dir], name)
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						if d.Name.Name == "init" || d.Name.Name == "main" && pkg.Types.Name() == "main" {
							continue
						}
						check(d.Name, "")
						continue
					}
					fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if fn == nil || satisfies(fn, ifaces) {
						continue
					}
					recv := ""
					if tn := receiverTypeName(pkg.Info, d); tn != nil {
						recv = tn.Name() + "."
					}
					check(d.Name, recv)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							check(s.Name, "")
						case *ast.ValueSpec:
							for _, id := range s.Names {
								check(id, "")
							}
						}
					}
				}
			}
		}
	}
	for _, d := range dirs {
		if d.used {
			continue
		}
		msg := "stale //lint:allow unused: it covers no declaration"
		if n := names[d]; len(n) > 0 {
			msg = "stale //lint:allow unused: " + strings.Join(n, ", ") + " is referenced"
		}
		findings = append(findings, finding{d.pos, msg})
	}

	slices.SortFunc(findings, func(a, b finding) int {
		return cmp.Or(cmp.Compare(a.pos.Filename, b.pos.Filename), cmp.Compare(a.pos.Line, b.pos.Line), cmp.Compare(a.msg, b.msg))
	})
	out := make([]string, len(findings))
	for i, f := range findings {
		file := f.pos.Filename
		if rel, err := filepath.Rel(root, file); root != "" && err == nil {
			file = rel
		}
		out[i] = fmt.Sprintf("%s:%d: %s", file, f.pos.Line, f.msg)
	}
	return out
}

// markUses records the declaring position of every object pkg's files
// reference outside the object's own declaration: a function's body
// naming the function, a spec naming itself, and a method's receiver
// naming its type are not references.
func markUses(pkg *Package, used map[token.Pos]bool) {
	mark := func(unit ast.Node, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := pkg.Info.Uses[id]; obj != nil && (obj.Pos() < unit.Pos() || obj.Pos() >= unit.End()) {
				used[obj.Pos()] = true
			}
			return true
		})
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				mark(d, d.Type)
				if d.Body != nil {
					mark(d, d.Body)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					mark(spec, spec)
				}
			}
		}
	}
}

// walkImports adds the interfaces of pkg and of everything it imports.
func walkImports(pkg *types.Package, seen map[*types.Package]bool, ifaces map[string][]*types.Signature) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	addIfaces(pkg.Scope(), ifaces)
	for _, dep := range pkg.Imports() {
		walkImports(dep, seen, ifaces)
	}
}

// addIfaces records the methods of every interface type named in scope.
func addIfaces(scope *types.Scope, ifaces map[string][]*types.Signature) {
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		it, ok := tn.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for i := range it.NumMethods() {
			m := it.Method(i)
			ifaces[m.Name()] = append(ifaces[m.Name()], m.Type().(*types.Signature))
		}
	}
}

// satisfies reports whether fn's name and signature match a method of a
// recorded interface.
func satisfies(fn *types.Func, ifaces map[string][]*types.Signature) bool {
	sig := fn.Type().(*types.Signature)
	return slices.ContainsFunc(ifaces[fn.Name()], func(m *types.Signature) bool {
		return types.Identical(sig, m)
	})
}

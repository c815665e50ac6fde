package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// Package is one type-checked, comment-preserving package the analyzers
// run over.
type Package struct {
	PkgPath string
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// Root marks packages named by the caller's patterns (analyzed), as
	// opposed to non-standard dependencies loaded only for type info.
	Root bool
}

// listedPackage is the subset of `go list -deps -json` output the loader
// needs. DepOnly marks packages loaded only for type information; Match
// lists the command-line patterns a root package satisfied.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Match      []string
}

// loaderImporter resolves imports from the loader's own cache of
// already-checked packages and everything else (the standard library)
// through the compiler-from-source importer.
type loaderImporter struct {
	cache map[string]*types.Package
	std   types.Importer
}

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := li.cache[path]; ok {
		return pkg, nil
	}
	return li.std.Import(path)
}

// LoadInto resolves the patterns with one `go list -deps` call — the go
// command is the one tool the stdlib-only rule assumes, since it is the
// toolchain itself — and type-checks every root and every non-standard
// dependency into the caller's FileSet. go list prints each dependency
// before its importers, so its order is the type-checking order. A
// pattern that matches no package is an error, not an empty run. Test
// files are not loaded: the determinism contract is about production
// code, and every analyzer exempts tests.
func LoadInto(fset *token.FileSet, dir string, patterns []string) ([]*Package, error) {
	// Sorted patterns make the root order, and with it which of two
	// cross-package duplicate seeddomain declarations is reported, the
	// same whatever order the patterns were given in.
	args := append([]string{"list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard,DepOnly,Match"}, patterns...)
	slices.Sort(args[3:])
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	li := &loaderImporter{cache: map[string]*types.Package{}, std: importer.ForCompiler(fset, "source", nil)}
	matched := map[string]bool{}
	var pkgs []*Package
	for dec := json.NewDecoder(&out); dec.More(); {
		meta := new(listedPackage)
		if err := dec.Decode(meta); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		for _, m := range meta.Match {
			matched[m] = true
		}
		if meta.Standard && meta.DepOnly {
			continue // the source importer type-checks these on demand
		}
		pkg, err := checkPackage(fset, li, meta)
		if err != nil {
			return nil, err
		}
		li.cache[meta.ImportPath] = pkg.Types
		pkg.Root = !meta.DepOnly
		pkgs = append(pkgs, pkg)
	}
	for _, pat := range patterns {
		if !matched[pat] {
			return nil, fmt.Errorf("lint: pattern %q matched no packages", pat)
		}
	}
	return pkgs, nil
}

// declSite is one function declaration with a body somewhere in the
// loaded module: the call graph's node payload.
type declSite struct {
	Pkg  *Package
	Decl *ast.FuncDecl
}

// funcDecls indexes every function and method declared with a body across
// the loaded packages by its types.Func object. This is the intra-module
// half of a call graph: stdlib callees have no entry and a walk simply
// stops at them.
func funcDecls(pkgs []*Package) map[*types.Func]declSite {
	decls := map[*types.Func]declSite{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = declSite{Pkg: pkg, Decl: fd}
				}
			}
		}
	}
	return decls
}

// staticCallees appends the statically-resolvable callees of the
// declaration's body: direct calls to named functions and methods whose
// identity the type checker pins down. Calls through function values,
// interface methods without a concrete receiver, and builtins resolve to
// nothing and the walk stops there — the hot-path contract is about code
// the compiler provably reaches, not about dynamic dispatch.
func staticCallees(site declSite, dst []*types.Func) []*types.Func {
	info := site.Pkg.Info
	ast.Inspect(site.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calledFunc(info, call); fn != nil {
			dst = append(dst, fn)
		}
		return true
	})
	return dst
}

// scratchMarker is the annotation that declares a struct field to be
// owner-scoped scratch memory:
//
//	type evolver struct {
//		entries []entry //lint:scratch
//	}
//
// Scratch is storage the owner overwrites wholesale on its next kernel
// invocation, so nothing aliasing it may outlive the call that filled it.
// The scratchsafe analyzer enforces that contract on every method of the
// declaring type, of each type that embeds or holds it, and on every
// //lint:hotpath function.
const scratchMarker = "//lint:scratch"

// scratchIndex is the repo-wide view of the //lint:scratch annotations:
// the tagged field objects, and the named types that carry at least one
// of them, directly or through a field that embeds or holds another
// carrier (whose methods all inherit the scratchsafe check).
type scratchIndex struct {
	fields map[*types.Var]bool
	owners map[*types.TypeName]bool
}

// scratchFields indexes every //lint:scratch-tagged struct field across
// the loaded packages. The marker is read from the field's doc comment or
// trailing line comment, so it works both above and beside the field. A
// struct whose field is a carrier, or a pointer to one, carries scratch
// too: its methods reach the tagged fields as promoted or selected
// fields, so they are checked like the carrier's own.
func scratchFields(pkgs []*Package) *scratchIndex {
	idx := &scratchIndex{fields: map[*types.Var]bool{}, owners: map[*types.TypeName]bool{}}
	holders := map[*types.TypeName][]*types.TypeName{} // field type → structs with such a field
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				owner, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
				for _, field := range st.Fields.List {
					if held := typeName(deref(pkg.Info.TypeOf(field.Type))); held != nil && owner != nil {
						holders[held] = append(holders[held], owner)
					}
					if !hasMarker(scratchMarker, field.Doc, field.Comment) {
						continue
					}
					for _, name := range field.Names {
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
							idx.fields[v] = true
							if owner != nil {
								idx.owners[owner] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	for grew := true; grew; {
		grew = false
		for held, hs := range holders {
			for _, h := range hs {
				if idx.owners[held] && !idx.owners[h] {
					idx.owners[h], grew = true, true
				}
			}
		}
	}
	return idx
}

// receiverVar returns the declaration's receiver variable object, or nil
// for plain functions and anonymous receivers.
func receiverVar(info *types.Info, fd *ast.FuncDecl) *types.Var {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	v, _ := info.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	return v
}

// receiverTypeName resolves the named type a method declaration hangs off,
// unwrapping one level of pointer, or nil for plain functions.
func receiverTypeName(info *types.Info, fd *ast.FuncDecl) *types.TypeName {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	return typeName(deref(info.TypeOf(fd.Recv.List[0].Type)))
}

// checkPackage parses and type-checks one package's non-test files.
func checkPackage(fset *token.FileSet, imp types.Importer, meta *listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range meta.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(meta.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(meta.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", meta.ImportPath, err)
	}
	return &Package{
		PkgPath: meta.ImportPath,
		Dir:     meta.Dir,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}

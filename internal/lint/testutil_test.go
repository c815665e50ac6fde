package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The stdlib source importer recompiles imported packages from GOROOT
// source, so every test shares one instance (and the FileSet it is bound
// to) to pay that cost once per `go test` run.
var (
	testFset        = token.NewFileSet()
	testImporterMu  sync.Mutex
	testImporterVal types.Importer
)

func testStdImporter() types.Importer {
	testImporterMu.Lock()
	defer testImporterMu.Unlock()
	if testImporterVal == nil {
		testImporterVal = importer.ForCompiler(testFset, "source", nil)
	}
	return testImporterVal
}

// fixturePkg is one embedded-source package of a test case. Earlier
// packages in a case are importable by later ones, so tests can stand up
// a stand-in internal/exec next to the package under analysis.
type fixturePkg struct {
	path string
	src  string
}

// execStub mirrors the signatures of the real derivation helpers so
// nondeterm and seeddomain fixtures can exercise the blessed exec paths
// without loading the whole module.
var execStub = fixturePkg{
	path: Module + "/internal/exec",
	src: `package exec
import "math/rand"
type Domain struct {
	Tag string
	ID  int64
}
func Seed(base int64, coords ...int64) int64 { return base }
func DomainSeed(base int64, d Domain, coords ...int64) int64 { return Seed(base, append([]int64{d.ID}, coords...)...) }
func RNG(base int64, coords ...int64) *rand.Rand { return rand.New(rand.NewSource(Seed(base, coords...))) }
func DomainRNG(base int64, d Domain, coords ...int64) *rand.Rand { return rand.New(rand.NewSource(DomainSeed(base, d, coords...))) }
func Reseed(rng *rand.Rand, base int64, coords ...int64) { rng.Seed(Seed(base, coords...)) }
func ScratchRNG() *rand.Rand { return rand.New(rand.NewSource(0)) }
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	for i := 0; i < n; i++ {
		var err error
		if out[i], err = fn(i); err != nil {
			return nil, err
		}
	}
	return out, nil
}
func MapAll[T any](workers, n int, fn func(i int) (T, error)) ([]T, []error, error) {
	out := make([]T, n)
	for i := 0; i < n; i++ {
		var err error
		if out[i], err = fn(i); err != nil {
			return nil, nil, err
		}
	}
	return out, nil, nil
}
`,
}

// runFixture type-checks the packages in order, runs the given analyzers
// over the last one, and compares the diagnostics against the `// want
// "substring"` comments embedded in its source. Every diagnostic must be
// wanted and every want must be found.
func runFixture(t *testing.T, analyzers []*Analyzer, pkgs ...fixturePkg) {
	t.Helper()
	runFixtureRoots(t, analyzers, 1, pkgs...)
}

// typecheckFixtures parses and type-checks the fixture packages in order
// (earlier packages import into later ones), marking the last `roots` of
// them as analysis roots. Call-graph tests use the result directly;
// runFixtureRoots layers analyzer execution and want-matching on top.
func typecheckFixtures(t *testing.T, roots int, pkgs ...fixturePkg) []*Package {
	t.Helper()
	li := &loaderImporter{cache: map[string]*types.Package{}, std: testStdImporter()}

	var all []*Package
	for i, fp := range pkgs {
		filename := fmt.Sprintf("%s_%s.go", strings.ReplaceAll(path.Base(fp.path), "-", "_"), t.Name()[strings.LastIndex(t.Name(), "/")+1:])
		f, err := parser.ParseFile(testFset, filename, fp.src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture %s: %v", fp.path, err)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: li}
		tpkg, err := conf.Check(fp.path, testFset, []*ast.File{f}, info)
		if err != nil {
			t.Fatalf("type-checking fixture %s: %v", fp.path, err)
		}
		li.cache[fp.path] = tpkg
		all = append(all, &Package{PkgPath: fp.path, Files: []*ast.File{f}, Types: tpkg, Info: info, Root: i >= len(pkgs)-roots})
	}
	return all
}

// runFixtureRoots is runFixture for the flow-aware analyzers: the last
// `roots` packages are analyzed (earlier ones load as dependencies, so
// cross-package call graphs and domain registries see them), and want
// comments are checked across every analyzed package.
func runFixtureRoots(t *testing.T, analyzers []*Analyzer, roots int, pkgs ...fixturePkg) {
	t.Helper()
	all := typecheckFixtures(t, roots, pkgs...)
	got := RunAnalyzers(testFset, all, analyzers)
	for _, pkg := range all {
		if !pkg.Root {
			continue
		}
		// Each root package is matched only against its own files'
		// diagnostics, so a finding in one root does not read as
		// "unexpected" while checking another.
		own := map[string]bool{}
		for _, f := range pkg.Files {
			own[testFset.Position(f.Pos()).Filename] = true
		}
		var mine []Diagnostic
		for _, d := range got {
			if own[d.Pos.Filename] {
				mine = append(mine, d)
			}
		}
		checkWants(t, pkg, mine)
	}
}

// want comments mark expected diagnostics: `// want "substr"` on the
// finding's line, or `// want(-1) "substr"` with a relative line offset
// when the finding's own line cannot carry a comment (e.g. it IS a
// directive comment under test).
var wantRe = regexp.MustCompile(`// want(?:\(([+-]\d+)\))?((?: "[^"]*")+)`)
var quotedRe = regexp.MustCompile(`"([^"]*)"`)

// checkWants matches diagnostics against // want comments by line and
// substring (matched against the "analyzer: message" rendering).
func checkWants(t *testing.T, pkg *Package, got []Diagnostic) {
	t.Helper()
	type want struct {
		line int
		sub  string
		hit  bool
	}
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := testFset.Position(c.Pos()).Line
				if m[1] != "" {
					off, err := strconv.Atoi(m[1])
					if err != nil {
						t.Fatalf("bad want offset in %q: %v", c.Text, err)
					}
					line += off
				}
				for _, q := range quotedRe.FindAllStringSubmatch(m[2], -1) {
					wants = append(wants, &want{line: line, sub: q[1]})
				}
			}
		}
	}
	for _, d := range got {
		rendered := d.Analyzer + ": " + d.Message
		matched := false
		for _, w := range wants {
			if !w.hit && w.line == d.Pos.Line && strings.Contains(rendered, w.sub) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d: %s", d.Pos.Filename, d.Pos.Line, rendered)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("missing diagnostic: line %d want %q", w.line, w.sub)
		}
	}
}

// analyzerByName pulls one analyzer out of the suite.
func analyzerByName(t *testing.T, name string) []*Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name == name {
			return []*Analyzer{a}
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

package lint

import (
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// The call-graph walk (funcDecls + staticCallees + hotSet) underpins both
// hotalloc and scratchsafe: every function it reaches inherits the
// zero-alloc and scratch-ownership contracts. These tests pin its edge
// cases — what resolves, what is documented as unresolved, and that the
// two analyzers can never disagree about reachability because they share
// the one walk.

// graphFuncs computes the fixture's declaration index and hot set, plus a
// by-name lookup (fixture function names are unique per test).
func graphFuncs(t *testing.T, src string) (map[*types.Func]declSite, map[*types.Func]*types.Func, func(string) *types.Func) {
	t.Helper()
	pkgs := typecheckFixtures(t, 1, fixturePkg{path: Module + "/callgraph", src: src})
	decls := funcDecls(pkgs)
	roots := hotSet(decls)
	byName := func(name string) *types.Func {
		t.Helper()
		var found *types.Func
		for fn := range decls {
			if fn.Name() == name {
				if found != nil {
					t.Fatalf("two declarations named %s in fixture", name)
				}
				found = fn
			}
		}
		if found == nil {
			t.Fatalf("no declaration named %s in fixture", name)
		}
		return found
	}
	return decls, roots, byName
}

// TestCallGraphMethodValueUnresolved: a method value (f := s.Target; f())
// is dynamic dispatch — the call site's identifier resolves to a variable,
// not a *types.Func — so the walk stops and Target stays out of the hot
// set. The same method called directly is in.
func TestCallGraphMethodValueUnresolved(t *testing.T) {
	_, roots, byName := graphFuncs(t, `package callgraph

type S struct{ n int }

func (s *S) Target() { s.n++ }

//lint:hotpath
func ViaValue(s *S) {
	f := s.Target
	f()
}

//lint:hotpath
func Direct(s *S) {
	s.Target()
}
`)
	if _, hot := roots[byName("Target")]; !hot {
		t.Fatal("Target called directly from a hot root must be in the hot set")
	}
	if got := roots[byName("Target")]; got != byName("Direct") {
		t.Fatalf("Target attributed to %s, want Direct (the only resolving caller)", got.Name())
	}
	if got := roots[byName("ViaValue")]; got != byName("ViaValue") {
		t.Fatal("ViaValue is a marked root and must map to itself")
	}
}

// TestCallGraphMethodValueOnlyCallerStops: with no direct caller at all,
// the method-value indirection keeps the callee entirely out of the set —
// the documented limitation, not an accident.
func TestCallGraphMethodValueOnlyCallerStops(t *testing.T) {
	_, roots, byName := graphFuncs(t, `package callgraph

type S struct{ n int }

func (s *S) Target() { s.n++ }

//lint:hotpath
func ViaValue(s *S) {
	f := s.Target
	f()
}
`)
	if _, hot := roots[byName("Target")]; hot {
		t.Fatal("method value call must not resolve: Target should be outside the hot set")
	}
	if len(roots) != 1 {
		t.Fatalf("hot set has %d entries, want only the marked root", len(roots))
	}
}

// TestCallGraphInterfaceCallUnresolved: a call through an interface
// resolves to the interface method object, which has no body and no entry
// in the declaration index — the walk stops there and the concrete
// implementation is not pulled in.
func TestCallGraphInterfaceCallUnresolved(t *testing.T) {
	decls, roots, byName := graphFuncs(t, `package callgraph

type Doer interface{ Do() }

type Impl struct{ n int }

func (m *Impl) Do() { m.n++ }

//lint:hotpath
func Root(d Doer) {
	d.Do()
}
`)
	if _, hot := roots[byName("Do")]; hot {
		t.Fatal("interface dispatch must not resolve: Impl.Do should be outside the hot set")
	}
	// The interface method IS collected as a static callee (the type
	// checker pins the *types.Func), but having no declaration it cannot
	// extend the walk — pin the mechanism, not just the outcome.
	site := decls[byName("Root")]
	for _, callee := range staticCallees(site, nil) {
		if _, declared := decls[callee]; declared {
			t.Fatalf("Root's only callee is an interface method; resolved %s unexpectedly", callee.FullName())
		}
	}
}

// TestCallGraphMutualRecursionTerminates: Ping ↔ Pong cycle through a
// marked root. The BFS must terminate (the roots map doubles as the seen
// set) and attribute both to the one root.
func TestCallGraphMutualRecursionTerminates(t *testing.T) {
	_, roots, byName := graphFuncs(t, `package callgraph

//lint:hotpath
func Ping(n int) {
	if n > 0 {
		Pong(n - 1)
	}
}

func Pong(n int) {
	if n > 0 {
		Ping(n - 1)
	}
}
`)
	if len(roots) != 2 {
		t.Fatalf("hot set has %d entries, want Ping and Pong", len(roots))
	}
	ping := byName("Ping")
	if roots[ping] != ping {
		t.Fatal("Ping must map to itself")
	}
	if roots[byName("Pong")] != ping {
		t.Fatal("Pong must be attributed to Ping through the cycle")
	}
}

// TestCallGraphRootAttributionDeterministic: a helper reachable from two
// marked roots is always attributed to the FullName-ordered first one,
// never to whichever map iteration happened to visit first.
func TestCallGraphRootAttributionDeterministic(t *testing.T) {
	for i := 0; i < 8; i++ {
		_, roots, byName := graphFuncs(t, `package callgraph

func Shared() {}

//lint:hotpath
func Alpha() { Shared() }

//lint:hotpath
func Beta() { Shared() }
`)
		if got := roots[byName("Shared")]; got != byName("Alpha") {
			t.Fatalf("Shared attributed to %s, want Alpha (FullName-ordered first seed)", got.Name())
		}
	}
}

// TestHotReachabilityAgreement: hotalloc and scratchsafe run over the same
// fixture and report the same transitive callee with the same "statically
// reachable from" attribution — the shared hotSet walk is what makes the
// two contracts coextensive.
func TestHotReachabilityAgreement(t *testing.T) {
	src := `package callgraph

type K struct {
	buf []int //lint:scratch
}

//lint:hotpath
func (k *K) Step() {
	k.helper()
}

var sink []int

func (k *K) helper() {
	tmp := make([]int, 4) // want "make allocates in helper, statically reachable from //lint:hotpath Step"
	k.buf = tmp
	sink = k.buf // want "stores memory aliasing scratch field buf into package-level sink in helper, statically reachable from //lint:hotpath Step"
}
`
	runFixture(t, append(analyzerByName(t, "hotalloc"), analyzerByName(t, "scratchsafe")...),
		fixturePkg{path: Module + "/callgraph", src: src})
}

// TestLoadIntoRoutingOrder pins the loader's contract on a real package:
// go list -deps yields the standard library too, but the loader keeps
// only module packages, marks only the named one as a root, and returns
// every package after all of its module-internal imports (the order
// type-checking needs).
func TestLoadIntoRoutingOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain via go list")
	}
	pkgs, err := LoadInto(token.NewFileSet(), "../..", []string{"./internal/routing"})
	if err != nil {
		t.Fatal(err)
	}
	at := map[string]int{}
	for i, pkg := range pkgs {
		if !strings.HasPrefix(pkg.PkgPath, Module+"/") {
			t.Errorf("standard-library package %s loaded from source", pkg.PkgPath)
		}
		if pkg.Root != (pkg.PkgPath == Module+"/internal/routing") {
			t.Errorf("%s: Root = %v", pkg.PkgPath, pkg.Root)
		}
		for _, imp := range pkg.Types.Imports() {
			if j, ok := at[imp.Path()]; strings.HasPrefix(imp.Path(), Module+"/") && (!ok || j >= i) {
				t.Errorf("%s precedes its import %s", pkg.PkgPath, imp.Path())
			}
		}
		at[pkg.PkgPath] = i
	}
	if len(pkgs) < 2 {
		t.Fatalf("loaded %d packages; routing has module-internal imports", len(pkgs))
	}
}

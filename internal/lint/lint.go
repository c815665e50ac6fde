// Package lint is a stdlib-only static-analysis driver that mechanically
// enforces the repository's correctness contracts: the same seed must
// produce byte-identical experiment output at any worker count, hot
// kernels must not allocate, and neither of those disciplines may
// introduce aliasing or sharing bugs of its own. Eight analyzers cover
// the bug classes that historically break the contracts — wall-clock
// reads and process-global randomness (nondeterm), emission in map
// iteration order (maporder), silently dropped writer errors (errdrop),
// exact floating-point comparison (floateq), allocation in //lint:hotpath
// kernels (hotalloc), untagged or colliding RNG streams (seeddomain),
// scratch buffers escaping their owner (scratchsafe), and non-disjoint
// writes from pool-task closures (poolshare).
//
// Intentional exceptions are annotated in source:
//
//	//lint:allow <analyzer> <reason>
//
// The directive suppresses that analyzer's findings on its own line and on
// the line immediately below, so it works both as a trailing comment and
// as a standalone comment above the offending statement. The reason is
// mandatory: an unexplained exception is itself reported. One directive
// name belongs to no analyzer: //lint:allow unused <reason> keeps a
// declaration no program references, and the module's "used by a
// program" gate, a test (TestEveryDeclarationIsUsed), is what reads it.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers is the suite in reporting order. Each call returns fresh
// instances: seeddomain's repo-wide domain registry accumulates across the
// packages of one RunAnalyzers call, so analyzer values must not be shared
// between runs.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		nondetermAnalyzer(),
		maporderAnalyzer(),
		errdropAnalyzer(),
		floateqAnalyzer(),
		hotallocAnalyzer(),
		seeddomainAnalyzer(),
		scratchsafeAnalyzer(),
		poolshareAnalyzer(),
	}
}

// unusedDirective names the //lint:allow directive the module's "used by
// a program" gate (TestEveryDeclarationIsUsed) reads. No analyzer runs
// under that name, so RunAnalyzers accepts it but never calls it stale;
// the gate reports a stale one itself.
const unusedDirective = "unused"

// A Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's run over one package. Findings are only
// reported against the pass's own package, but the flow-aware analyzers
// follow calls across package boundaries through indexes of every loaded
// package, built once per RunAnalyzers call.
type Pass struct {
	Fset     *token.FileSet
	Pkg      *Package
	analyzer *Analyzer
	diags    *[]Diagnostic
	decls    map[*types.Func]declSite    // every function with a body
	hot      map[*types.Func]*types.Func // hot set → its //lint:hotpath root
	scratch  *scratchIndex               // //lint:scratch fields and owners
}

// Report records a finding at the node's position.
func (p *Pass) Report(n ast.Node, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(n.Pos()),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-tolerant shorthand for the package's type info.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf resolves an identifier to its object, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

// inspect walks every file of the pass's package with ast.Inspect.
func (p *Pass) inspect(f func(ast.Node) bool) {
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, f)
	}
}

const directivePrefix = "//lint:allow "

// allowKey identifies one suppressed (file line, analyzer) pair.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowDirective is one well-formed //lint:allow annotation: the lines it
// covers, and whether it ever suppressed a finding (a directive that
// suppresses nothing is itself reported — dead exceptions rot the
// contract).
type allowDirective struct {
	pos      token.Position
	analyzer string
	used     bool
}

// directives scans a package's comments for //lint:allow annotations.
// Malformed directives (unknown analyzer, missing reason) are reported as
// findings so the escape hatch cannot silently rot. Only line comments
// participate: a directive buried in a /* block comment */ is inert.
func directives(fset *token.FileSet, pkg *Package, known map[string]bool, diags *[]Diagnostic) []*allowDirective {
	var out []*allowDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, strings.TrimSpace(directivePrefix)) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, strings.TrimSpace(directivePrefix))
				fields := strings.Fields(rest)
				if len(fields) == 0 || !known[fields[0]] {
					*diags = append(*diags, Diagnostic{Pos: pos, Analyzer: "directive",
						Message: fmt.Sprintf("malformed directive %q: want //lint:allow <analyzer> <reason>", c.Text)})
					continue
				}
				if len(fields) < 2 {
					*diags = append(*diags, Diagnostic{Pos: pos, Analyzer: "directive",
						Message: fmt.Sprintf("directive %q needs a reason: an unexplained exception is not an exception", c.Text)})
					continue
				}
				out = append(out, &allowDirective{pos: pos, analyzer: fields[0]})
			}
		}
	}
	return out
}

// RunAnalyzers runs the given analyzers over every root package and
// returns findings sorted by position, with //lint:allow suppressions
// applied and stale directives — ones that no longer suppress anything —
// reported. Directive validation is subset-aware: a directive naming any
// analyzer of the full suite is well-formed even when that analyzer is
// not in this run, and staleness is only judged for analyzers that
// actually ran (a subset run cannot tell whether a skipped analyzer's
// directive still earns its keep).
func RunAnalyzers(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := map[string]bool{unusedDirective: true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	ran := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
		ran[a.Name] = true
	}
	decls := funcDecls(pkgs)
	hot, scratch := hotSet(decls), scratchFields(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if !pkg.Root {
			continue
		}
		var raw []Diagnostic
		dirs := directives(fset, pkg, known, &raw)
		allowed := map[allowKey]*allowDirective{}
		for _, d := range dirs {
			for _, l := range []int{d.pos.Line, d.pos.Line + 1} {
				allowed[allowKey{d.pos.Filename, l, d.analyzer}] = d
			}
		}
		for _, a := range analyzers {
			a.Run(&Pass{Fset: fset, Pkg: pkg, analyzer: a, diags: &raw, decls: decls, hot: hot, scratch: scratch})
		}
		for _, d := range raw {
			if dir := allowed[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}]; dir != nil {
				dir.used = true
				continue
			}
			diags = append(diags, d)
		}
		for _, d := range dirs {
			if !d.used && ran[d.analyzer] {
				diags = append(diags, Diagnostic{Pos: d.pos, Analyzer: "directive",
					Message: fmt.Sprintf("stale //lint:allow %s: no %s finding on this line or the next; delete the directive", d.analyzer, d.analyzer)})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// jsonDiagnostic is the machine-readable rendering of one finding: one
// JSON object per line, stable field order, for CI artifacts and tooling.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// Run is the CLI entry point: load the patterns (default ./...), run the
// given analyzers, and print the findings as file:line:col text, or as
// JSON lines when jsonOut is set. It returns the exit code: 0 clean, 1
// findings, 2 load failure.
func Run(dir string, patterns []string, jsonOut bool, analyzers []*Analyzer, stdout, stderr io.Writer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	fset := token.NewFileSet()
	pkgs, err := LoadInto(fset, dir, patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	diags := RunAnalyzers(fset, pkgs, analyzers)
	enc := json.NewEncoder(stdout)
	for _, d := range diags {
		if jsonOut {
			if err := enc.Encode(jsonDiagnostic{
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			}); err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			continue
		}
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "openspace-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

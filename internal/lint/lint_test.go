package lint

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// TestJSONOutput pins the machine-readable mode CI uploads as an
// artifact: one JSON object per finding per line, same findings and exit
// code as the text mode.
func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain via go list")
	}
	var text, jsonBuf, errb bytes.Buffer
	if exit := Run(".", []string{"./testdata/src/floateq_bad"}, false, Analyzers(), &text, &errb); exit != 1 {
		t.Fatalf("text exit = %d, want 1 (stderr: %s)", exit, errb.String())
	}
	if exit := Run(".", []string{"./testdata/src/floateq_bad"}, true, Analyzers(), &jsonBuf, &errb); exit != 1 {
		t.Fatalf("json exit = %d, want 1 (stderr: %s)", exit, errb.String())
	}
	textLines := strings.Split(strings.TrimSpace(text.String()), "\n")
	jsonLines := strings.Split(strings.TrimSpace(jsonBuf.String()), "\n")
	if len(jsonLines) != len(textLines) {
		t.Fatalf("json mode emitted %d findings, text mode %d", len(jsonLines), len(textLines))
	}
	for _, line := range jsonLines {
		var d struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("unparseable JSON finding %q: %v", line, err)
		}
		if d.File == "" || d.Line == 0 || d.Col == 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("JSON finding with empty field: %q", line)
		}
	}
}

func TestDirectiveValidation(t *testing.T) {
	pkg := Module + "/internal/fixture"

	t.Run("unknown_analyzer_reported", func(t *testing.T) {
		runFixture(t, Analyzers(), fixturePkg{pkg, `package fixture
//lint:allow nosuchcheck because reasons // want "directive: malformed directive"
func F() {}
`})
	})
	t.Run("missing_reason_reported", func(t *testing.T) {
		// A reasonless directive is itself reported AND suppresses nothing,
		// so the draw below it still surfaces.
		runFixture(t, Analyzers(), fixturePkg{pkg, `package fixture
import "math/rand"
func Draw() int {
	//lint:allow nondeterm
	// want(-1) "needs a reason"
	return rand.Intn(10) // want "nondeterm: global math/rand.Intn"
}
`})
	})
	t.Run("directive_does_not_leak_past_next_line", func(t *testing.T) {
		runFixture(t, Analyzers(), fixturePkg{pkg, `package fixture
import "math/rand"
func Draw() int {
	//lint:allow nondeterm only the next line is excused
	a := rand.Intn(10)
	b := rand.Intn(10) // want "nondeterm: global math/rand.Intn"
	return a + b
}
`})
	})
	t.Run("directive_scoped_to_one_analyzer", func(t *testing.T) {
		runFixture(t, Analyzers(), fixturePkg{pkg, `package fixture
import "math/rand"
func Mix(a, b float64) bool {
	//lint:allow nondeterm excused draw, but not the comparison below
	return float64(rand.Intn(10)) == a*b // want "floateq: exact floating-point == comparison"
}
`})
	})
}

func TestDirectiveEdgeCases(t *testing.T) {
	pkg := Module + "/internal/fixture"

	t.Run("block_comment_directive_is_inert", func(t *testing.T) {
		// Only line comments carry directives: a block comment that spells
		// one out suppresses nothing (and is not itself a finding — it is
		// just prose).
		runFixture(t, analyzerByName(t, "nondeterm"), fixturePkg{pkg, `package fixture
import "math/rand"
func Draw() int {
	/* lint:allow nondeterm tucked into a block comment */
	return rand.Intn(10) // want "nondeterm: global math/rand.Intn"
}
`})
	})

	t.Run("blank_line_breaks_coverage", func(t *testing.T) {
		// A directive covers its own line and the next; a blank line in
		// between means the finding survives AND the directive is stale.
		runFixture(t, analyzerByName(t, "nondeterm"), fixturePkg{pkg, `package fixture
import "math/rand"
func Draw() int {
	//lint:allow nondeterm does not reach past the blank line // want "stale //lint:allow nondeterm"

	return rand.Intn(10) // want "nondeterm: global math/rand.Intn"
}
`})
	})

	t.Run("two_analyzers_allowed_on_one_line", func(t *testing.T) {
		// One directive above plus one trailing covers a line that trips
		// two analyzers at once; both are used, so neither is stale.
		runFixture(t, Analyzers(), fixturePkg{pkg, `package fixture
import "math/rand"
func Mix(a, b float64) bool {
	//lint:allow floateq quantized comparison audited by hand
	return float64(rand.Intn(10)) == a*b //lint:allow nondeterm demo draw, not an experiment
}
`})
	})

	t.Run("stale_directive_reported", func(t *testing.T) {
		runFixture(t, Analyzers(), fixturePkg{pkg, `package fixture
func F() int {
	//lint:allow nondeterm nothing left to excuse here // want "stale //lint:allow nondeterm: no nondeterm finding"
	return 1
}
`})
	})
}

// TestMainOnFixturePackages drives the real loader + CLI path over the
// compiled fixture packages in testdata: each bad package must produce
// file:line diagnostics and exit 1, and the audited modalKind shape must
// load clean through the same path.
func TestMainOnFixturePackages(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain via go list")
	}
	cases := []struct {
		pattern  string
		wantExit int
		wantSubs []string
	}{
		{"./testdata/src/nondeterm_bad", 1, []string{
			"nondeterm_bad.go", "time.Now", "global math/rand.Intn", "seed expression calls",
		}},
		{"./testdata/src/maporder_bad", 1, []string{
			"maporder_bad.go", "output emitted inside", "never sorted in this function",
		}},
		{"./testdata/src/errdrop_bad", 1, []string{
			"errdrop_bad.go", "error from Write is discarded", "deferred Close discards",
			"error from Schedule is discarded",
		}},
		{"./testdata/src/floateq_bad", 1, []string{
			"floateq_bad.go", "exact floating-point == comparison",
		}},
		{"./testdata/src/hotalloc_bad", 1, []string{
			"hotalloc_bad.go", "make allocates", "append into a fresh slice",
			"statically reachable from //lint:hotpath",
		}},
		{"./testdata/src/seeddomain_bad", 1, []string{
			"seeddomain_bad.go", "raw rand.New constructs an untagged stream",
			"already declared", "must read",
		}},
		// Regression fixture for the audited map range in
		// internal/experiments/capacity_exp.go (modalKind): sorted after
		// collection, so the suite must pass it.
		{"./testdata/src/maporder_modalkind", 0, nil},
	}
	for _, tc := range cases {
		t.Run(strings.TrimPrefix(tc.pattern, "./testdata/src/"), func(t *testing.T) {
			var out, errb bytes.Buffer
			exit := Run(".", []string{tc.pattern}, false, Analyzers(), &out, &errb)
			if exit != tc.wantExit {
				t.Fatalf("Run(%q) exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					tc.pattern, exit, tc.wantExit, out.String(), errb.String())
			}
			for _, sub := range tc.wantSubs {
				if !strings.Contains(out.String(), sub) {
					t.Errorf("output missing %q:\n%s", sub, out.String())
				}
			}
			// Every diagnostic line must carry a clickable file:line:col.
			for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
				if line == "" {
					continue
				}
				if parts := strings.SplitN(line, ":", 4); len(parts) < 4 {
					t.Errorf("diagnostic without file:line:col: %q", line)
				}
			}
		})
	}
}

// TestPatternMatchingNothingFails: a pattern that matches no package is a
// load failure (exit 2), not a clean run. `...` skips testdata
// directories, so this pattern matches nothing.
func TestPatternMatchingNothingFails(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain via go list")
	}
	var out, errb bytes.Buffer
	if exit := Run(".", []string{"./testdata/..."}, false, Analyzers(), &out, &errb); exit != 2 {
		t.Fatalf("exit = %d, want 2\nstdout:\n%s\nstderr:\n%s", exit, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), `"./testdata/..." matched no packages`) {
		t.Errorf("stderr does not name the empty pattern:\n%s", errb.String())
	}
}

// TestDiagnosticsSorted pins the deterministic output order the CI gate
// relies on: findings sort by file, then line, then column.
func TestDiagnosticsSorted(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain via go list")
	}
	var out, errb bytes.Buffer
	if exit := Run(".", []string{"./testdata/src/nondeterm_bad", "./testdata/src/floateq_bad"}, false, Analyzers(), &out, &errb); exit != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", exit, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	parse := func(s string) (file string, line int) {
		parts := strings.SplitN(s, ":", 3)
		if len(parts) < 3 {
			t.Fatalf("unparseable diagnostic %q", s)
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			t.Fatalf("unparseable line in %q: %v", s, err)
		}
		return parts[0], n
	}
	for i := 1; i < len(lines); i++ {
		pf, pl := parse(lines[i-1])
		cf, cl := parse(lines[i])
		if pf > cf || (pf == cf && pl > cl) {
			t.Errorf("diagnostics out of order:\n%s\n%s", lines[i-1], lines[i])
		}
	}
}

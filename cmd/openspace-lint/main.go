// Command openspace-lint runs the repository's determinism-contract
// analyzer suite (see internal/lint) over the given package patterns and
// exits non-zero on findings:
//
//	go run ./cmd/openspace-lint ./...
//
// Findings print as file:line:col: analyzer: message, or as one JSON
// object per line with -json (file, line, col, analyzer, message — the
// format CI uploads as an artifact). Intentional exceptions are annotated
// at the site with //lint:allow <analyzer> <reason>. Exit codes: 0 clean,
// 1 findings, 2 load/type-check failure (including a pattern that matches
// no package).
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/openspace-project/openspace/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON object per finding instead of text")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: openspace-lint [-json] [packages]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-11s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	os.Exit(lint.Run(".", flag.Args(), *jsonOut, lint.Analyzers(), os.Stdout, os.Stderr))
}

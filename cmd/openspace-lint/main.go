// Command openspace-lint runs the repository's determinism-contract
// analyzer suite (see internal/lint) over the given package patterns and
// exits non-zero on findings:
//
//	go run ./cmd/openspace-lint ./...
//
// Findings print as file:line:col: analyzer: message, or as one JSON
// object per line with -json (file, line, col, analyzer, message — the
// format CI uploads as an artifact). -analyzers a,b,c restricts the run
// to a comma-separated subset of the suite (unknown names are a usage
// error), so CI jobs and local iteration can target one analyzer without
// paying for the rest; //lint:allow directives naming analyzers outside
// the subset stay well-formed and are never reported stale by a subset
// run. Intentional exceptions are annotated at the site with
// //lint:allow <analyzer> <reason>. Exit codes: 0 clean, 1 findings, 2
// load/type-check failure (or an unknown -analyzers name).
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/openspace-project/openspace/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON object per finding instead of text")
	subset := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: openspace-lint [-json] [-analyzers a,b,c] [packages]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-11s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	analyzers, err := lint.Select(*subset)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(lint.Run(".", flag.Args(), *jsonOut, analyzers, os.Stdout, os.Stderr))
}

// Package experiments regenerates every figure of the paper's evaluation
// (§4) plus the extension experiments DESIGN.md indexes (E4–E9). Each
// experiment is a pure function of its config (seeded randomness), returns
// typed results, and can render itself as CSV for plotting or as ASCII for
// terminal inspection. Registry names every experiment and its configs;
// cmd/openspace-bench and the repository's bench_test.go drive them by it.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/openspace-project/openspace/internal/sim"
)

// WriteCSV writes a header and rows in RFC-4180-enough CSV (no quoting
// needed: all emitted fields are numeric or simple identifiers).
func WriteCSV(w io.Writer, header []string, rows [][]string) error {
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintln(w, strings.Join(r, ",")); err != nil {
			return err
		}
	}
	return nil
}

// RenderSeries draws one or more series as an ASCII chart, each series with
// its own glyph, sharing axes. Intended for quick terminal inspection of
// the figures; CSV output is the plotting path.
func RenderSeries(w io.Writer, title, xLabel, yLabel string, series []*sim.Series, width, height int) error {
	if width < 20 {
		width = 20
	}
	if height < 5 {
		height = 5
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	any := false
	for _, s := range series {
		for _, p := range s.Points {
			any = true
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
	}
	if !any {
		_, err := fmt.Fprintf(w, "%s: (no data)\n", title)
		return err
	}
	if maxX == minX { //lint:allow floateq degenerate-range guard wants exact collapse, not closeness
		maxX = minX + 1
	}
	if maxY == minY { //lint:allow floateq degenerate-range guard wants exact collapse, not closeness
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	glyphs := []byte{'*', 'o', '+', 'x', '#'}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for _, p := range s.Points {
			col := int((p.X - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((p.Y-minY)/(maxY-minY)*float64(height-1))
			grid[row][col] = g
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	for i, line := range grid {
		label := "        "
		if i == 0 {
			label = fmt.Sprintf("%8.3g", maxY)
		} else if i == height-1 {
			label = fmt.Sprintf("%8.3g", minY)
		}
		if _, err := fmt.Fprintf(w, "%s |%s|\n", label, line); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%9s%-*.3g%*.3g  (%s vs %s)\n",
		"", width/2, minX, width/2, maxX, yLabel, xLabel); err != nil {
		return err
	}
	for si, s := range series {
		if _, err := fmt.Fprintf(w, "%9s%c = %s\n", "", glyphs[si%len(glyphs)], s.Name); err != nil {
			return err
		}
	}
	return nil
}

// f converts a float to a compact CSV field.
func f(v float64) string { return fmt.Sprintf("%.6g", v) }

// d converts an int to a CSV field.
func d(v int) string { return fmt.Sprintf("%d", v) }

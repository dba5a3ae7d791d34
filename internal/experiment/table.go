package experiment

import (
	"fmt"
	"strings"
)

// Table is a minimal aligned-column text table used by the experiment
// tools to print paper-style result tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table with a separator line under the header.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.rows {
		for i, c := range row {
			if n := len([]rune(c)); n > widths[i] {
				widths[i] = n
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// FormatEventsPerSec renders a throughput figure compactly (e.g.
// "1.25M", "830k").
func FormatEventsPerSec(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

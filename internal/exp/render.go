package exp

import (
	"fmt"
	"strings"
)

// table is a simple aligned text table used to render experiment results the
// way the paper's figures label them.
type table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Caption string
}

// addRow appends a row of cells.
func (t *table) addRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// render formats the table with aligned columns.
func (t *table) render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
	}
	return b.String()
}

// f1, f2 and f0 format floats with fixed precision.
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

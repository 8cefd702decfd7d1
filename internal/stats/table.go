// Package stats provides the result-reporting utilities of the
// benchmark harness: aligned text tables in the style of the paper's
// Tables 1 and 2, and the source-line counter behind the Table 2
// productivity comparison.
package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	// Title is printed above the table when non-empty.
	Title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; missing cells render empty.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// AddRowf appends a row of formatted values.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(row...)
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Fprint writes the rendered table to w.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintln(w, t.Title)
	}
	// Cells are padded to their column's width; a line carries no
	// trailing blanks, so rendered tables can be checked in as text.
	line := func(cells []string) {
		var b strings.Builder
		for i, width := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width, c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.headers)
	rule := make([]string, len(t.headers))
	for i, width := range widths {
		rule[i] = strings.Repeat("-", width)
	}
	line(rule)
	for _, r := range t.rows {
		line(r)
	}
}

// Package table renders aligned ASCII tables and CSV for the experiment
// harnesses. Every experiment (`biochipbench list`) prints its rows
// through this package so output formatting is uniform across tools.
package table

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates a header and rows of string cells.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
	notes   []string
}

// New creates a table with the given column headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells are left blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row formatting each cell with fmt.Sprint for
// non-string values.
func (t *Table) AddRowf(cells ...interface{}) {
	s := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			s[i] = v
		case float64:
			s[i] = fmt.Sprintf("%.4g", v)
		default:
			s[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(s...)
}

// Note appends a footnote line printed below the table.
func (t *Table) Note(format string, args ...interface{}) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Render writes the table to w in aligned ASCII form.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = runeLen(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if l := runeLen(c); l > widths[i] {
				widths[i] = l
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(pad(c, widths[i]))
		}
		sb.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	for _, n := range t.notes {
		sb.WriteString("  * ")
		sb.WriteString(n)
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	// strings.Builder writes never fail.
	_ = t.Render(&sb)
	return sb.String()
}

// RenderCSV writes the table as RFC-4180-ish CSV (quotes only when needed).
func (t *Table) RenderCSV(w io.Writer) error {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(csvEscape(c))
		}
		sb.WriteByte('\n')
	}
	writeRow(t.headers)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
	}
	return s
}

// runeLen counts runes, not bytes, so µ and € align correctly.
func runeLen(s string) int { return len([]rune(s)) }

func pad(s string, width int) string {
	if n := width - runeLen(s); n > 0 {
		return s + strings.Repeat(" ", n)
	}
	return s
}

package relation

import (
	"strings"
)

// RenderOptions controls table rendering.
type RenderOptions struct {
	// SortRows renders tuples in lexicographic order instead of insertion
	// order. Insertion order matches the paper's example table layout.
	SortRows bool
	// Indent is prefixed to every output line.
	Indent string
}

// Render formats the relation as a column-aligned text table in the style
// of the paper's example (header row of attributes, one line per tuple).
func Render(r *Relation, opts RenderOptions) string {
	widths := make([]int, r.scheme.Len())
	for i := 0; i < r.scheme.Len(); i++ {
		widths[i] = len(r.scheme.Attr(i))
	}
	for row := 0; row < r.n; row++ {
		for i, v := range r.at(row) {
			if len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}

	var b strings.Builder
	writeRow := func(cells func(i int) string) {
		b.WriteString(opts.Indent)
		for i := range widths {
			if i > 0 {
				b.WriteString("  ")
			}
			c := cells(i)
			b.WriteString(c)
			if i < len(widths)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(func(i int) string { return string(r.scheme.Attr(i)) })
	var order []int32 // nil: insertion order, also for a BornSorted relation
	if opts.SortRows {
		order = r.SortedOrder()
	}
	for k := 0; k < r.n; k++ {
		row := k
		if order != nil {
			row = int(order[k])
		}
		t := r.at(row)
		writeRow(func(i int) string { return string(t[i]) })
	}
	return b.String()
}

// RenderSorted is shorthand for Render with deterministic row order.
func RenderSorted(r *Relation) string {
	return Render(r, RenderOptions{SortRows: true})
}

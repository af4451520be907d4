package relation

import "bufio"

// Sink receives one relation's rows as its producer writes them: Begin
// once, with the scheme and the exact number of rows to come, then Row
// per row, in order. A producer that learns its count only by producing
// the rows — the generic join — calls Begin with rows < 0: the count is
// then the number of Rows, known after the last. Begin reports whether
// the sink wants the rows at all — a sink that only counts does not when
// the count is known, and its producer then builds none — and Row
// whether it wants the next one. A Row that returns false stops the
// producer; that is the sink's business, not an error of the producer's.
//
// A Builder is the sink that materializes; a BlockWriter the one that
// writes the codec's block form. Replay feeds a relation that exists to
// either.
type Sink interface {
	Begin(scheme Scheme, rows int) bool
	Row(t Tuple) bool
}

// Replay feeds r to sink as if r were being produced: Begin with r's
// scheme and cardinality, then its rows in sorted order — a BornSorted
// relation in store order, anything else through its memoized sorted view
// — until the sink declines one. A sink that wants no rows costs no sort.
func Replay(r *Relation, sink Sink) {
	if !sink.Begin(r.scheme, r.n) {
		return
	}
	order := r.SortedOrder()
	for i := 0; i < r.n; i++ {
		row := i
		if order != nil {
			row = int(order[i])
		}
		if !sink.Row(r.at(row)) {
			return
		}
	}
}

// BlockWriter writes rows in the codec's block form through W's buffer:
// Begin the "relation <Name>" line and the scheme line, Row one line per
// row, values separated by a space, and End the "end" line. It flushes
// nothing itself. A write error stops the rows — Row reports false — and
// is what End returns.
type BlockWriter struct {
	W    *bufio.Writer
	Name string
	err  error
}

// Begin writes the block's header lines. It wants the rows.
func (b *BlockWriter) Begin(scheme Scheme, _ int) bool {
	b.W.WriteString("relation ")
	b.W.WriteString(b.Name)
	b.W.WriteByte('\n')
	scheme.WriteText(b.W)
	return b.line()
}

// Row writes t as one line.
func (b *BlockWriter) Row(t Tuple) bool {
	for j, v := range t {
		if j > 0 {
			b.W.WriteByte(' ')
		}
		b.W.WriteString(string(v))
	}
	return b.line()
}

// End writes the block's "end" line and returns the first write error.
func (b *BlockWriter) End() error {
	b.W.WriteString("end")
	b.line()
	return b.err
}

// line ends a line and reports whether every write so far succeeded; a
// bufio.Writer keeps its first error, so one look covers the line.
func (b *BlockWriter) line() bool {
	if err := b.W.WriteByte('\n'); err != nil && b.err == nil {
		b.err = err
	}
	return b.err == nil
}

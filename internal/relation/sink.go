package relation

import (
	"bufio"
	"io"
)

// Sink receives one relation's rows as its producer writes them: Begin
// once, with the scheme and the exact number of rows to come, then Row
// per row, in order. Begin reports whether the sink wants the rows at all
// — a sink that only counts does not, and its producer then builds none —
// and Row whether it wants the next one. A Row that returns false stops
// the producer; that is the sink's business, not an error of the
// producer's.
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

// flushing is a BlockWriter that flushes its buffer into the underlying
// writer after every every rows and then calls flushed: StreamRelation's
// sink.
type flushing struct {
	BlockWriter
	every, rows int
	flushed     func()
}

func (f *flushing) Row(t Tuple) bool {
	if !f.BlockWriter.Row(t) {
		return false
	}
	if f.rows++; f.every > 0 && f.rows%f.every == 0 {
		if err := f.W.Flush(); err != nil {
			f.err = err
			return false
		}
		f.flushed()
	}
	return true
}

// StreamRelation is WriteRelation for a consumer that wants rows as they
// are ready: after every `every` rows (when every > 0) it flushes its
// buffer into w and calls flushed, so a large result streams instead of
// buffering whole. It is a Replay of r through a BlockWriter: the rows are
// a sorted view of r's own tuples, not copies of them, and a BornSorted
// relation is walked in store order.
func StreamRelation(w io.Writer, name string, r *Relation, every int, flushed func()) error {
	f := &flushing{BlockWriter: BlockWriter{W: bufio.NewWriter(w), Name: name}, every: every, flushed: flushed}
	Replay(r, f)
	if err := f.End(); err != nil {
		return err
	}
	return f.W.Flush()
}

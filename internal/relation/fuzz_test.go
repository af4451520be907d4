package relation

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// FuzzReadDatabase checks the codec never panics, reads every text as a
// reference does that is nothing but strings.Fields and a set per block,
// and reads it alike from a reader (ReadDatabase) and from a string
// (ParseDatabase); that accepted databases survive a write/read cycle; and
// that every line splits into the row strings.Fields would split it into —
// the codec splits in place, into the store's next row, and must agree on
// all of unicode.IsSpace, not only on the ASCII blanks. The seeds put two
// blocks of SizeSample-1, SizeSample and SizeSample+1 rows side by side,
// the boundaries at which a block's dedup index is sized.
func FuzzReadDatabase(f *testing.F) {
	seeds := []string{
		"relation R\nA B\n1 2\nend\n",
		"relation R\nA\nend\nrelation S\nB C\nx y\nend\n",
		"# comment\nrelation T\nA B C\n1 e a\nend\n",
		"relation R\nA B\n1\nend\n",
		"relation R\nA A\nend\n",
		"garbage",
		"",
		// Separators strings.Fields honours beyond ASCII: NEL, NBSP, LS,
		// the ideographic space; and bytes that only look like them.
		"relation R\nA B\n1\u00852\n3\u00a04\nend\n",
		"relation R\nA B C\n1\u20282\u30003\n\u3000x \u0085 y\tz\u00a0\nend\n",
		"relation R\nA\n\xc2\n\x85\n\xe3\x80\nend\n",
		// A scheme line that reads "end", with and without rows after it.
		"relation R\nend\nend\n",
		"relation R\nend\n1\nend\n",
		"relation R\nend\n",
		// A comment and a blank line inside a block, CRLF line ends, and
		// text after the last "end".
		"relation R\nA B\n# inside\n\n1 2\n  # indented\n1 2\nend\n",
		"relation R\r\nA B\r\n1 2\r\n\r\n3 4\r\nend\r\n",
		"relation R\nA\n1\nend\ntrailing text\n",
		"relation R\nA\n1\nend\n# a comment after the last end\n\n",
	}
	for _, rows := range []int{SizeSample - 1, SizeSample, SizeSample + 1} {
		var b strings.Builder
		for _, name := range []string{"R", "S"} {
			fmt.Fprintf(&b, "relation %s\nA B\n", name)
			for i := 0; i < rows; i++ {
				fmt.Fprintf(&b, "%s%d b%d\n", name, i, i%3)
			}
			fmt.Fprintf(&b, "%s0 b0\n\n# a duplicate, a blank and a comment after the rows\nend\n", name)
		}
		seeds = append(seeds, b.String())
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		schemes := map[int]Scheme{} // one of each arity: a scheme per line would cost more than the parse
		for _, line := range strings.Split(src, "\n") {
			want := strings.Fields(line)
			for _, arity := range []int{len(want), len(want) + 1} { // the row it fits, and one it does not
				if _, ok := schemes[arity]; !ok {
					attrs := make([]Attribute, arity)
					for i := range attrs {
						attrs[i] = Attribute(fmt.Sprint("c", i))
					}
					schemes[arity] = MustScheme(attrs...)
				}
				r := New(schemes[arity])
				r.reserve(1) // one row, not a first 8 KB slab
				if n := r.addLine(line); n != len(want) {
					t.Fatalf("line %q split into %d fields, strings.Fields into %d", line, n, len(want))
				}
				if arity != len(want) {
					if r.Len() != 0 {
						t.Fatalf("line %q of %d fields added a row of arity %d", line, len(want), arity)
					}
					continue
				}
				if r.Len() != 1 || !r.Tuple(0).Equal(TupleOf(want...)) {
					t.Fatalf("line %q split into %v, strings.Fields into %q", line, r.Tuples(), want)
				}
			}
		}
		ref, refErr := blocksReference(src)
		db, err := ReadDatabase(strings.NewReader(src))
		parsed, parseErr := ParseDatabase(src)
		if fmt.Sprint(err) != fmt.Sprint(parseErr) {
			t.Fatalf("ReadDatabase error %v, ParseDatabase error %v", err, parseErr)
		}
		if (err != nil) != (refErr != nil) {
			t.Fatalf("ReadDatabase error %v, the reference's %v", err, refErr)
		}
		if err != nil {
			return
		}
		if len(db) != len(ref) || len(parsed) != len(ref) {
			t.Fatalf("%d and %d relations, the reference's %d", len(db), len(parsed), len(ref))
		}
		for name, want := range ref {
			r, p := db[name], parsed[name]
			if r == nil || p == nil || !r.Equal(p) || Fingerprint(r) != Fingerprint(p) {
				t.Fatalf("relation %q: ReadDatabase read %v, ParseDatabase %v", name, r, p)
			}
			if got := r.Scheme().String(); got != strings.Join(want.attrs, " ") {
				t.Fatalf("relation %q: scheme %q, the reference's %q", name, got, want.attrs)
			}
			if r.Len() != len(want.rows) {
				t.Fatalf("relation %q: %d rows, the reference's %d", name, r.Len(), len(want.rows))
			}
			for i := 0; i < r.Len(); i++ {
				if !want.rows[rowKey(r.Tuple(i))] {
					t.Fatalf("relation %q: row %v is not the reference's", name, r.Tuple(i))
				}
				if !r.Contains(r.Tuple(i)) {
					t.Fatalf("relation %q: row %d, %v, is not found through the index", name, i, r.Tuple(i))
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteDatabase(&buf, db); err != nil {
			t.Fatal(err)
		}
		back, err := ReadDatabase(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("rejected own output: %v", err)
		}
		if len(back) != len(db) {
			t.Fatalf("round trip lost relations: %d -> %d", len(db), len(back))
		}
		for name, r := range db {
			br, err := back.Get(name)
			if err != nil || !br.Equal(r) {
				t.Fatalf("relation %q changed in round trip", name)
			}
		}
	})
}

// refRelation is a block as blocksReference reads it: its attributes and
// the set of its rows, each keyed by its fields joined by a space (a
// field holds no space, so the key is one-to-one).
type refRelation struct {
	attrs []string
	rows  map[string]bool
}

// blocksReference reads text as codec blocks with nothing but
// strings.Fields: lines with no field or a first field opening with '#'
// are skipped; between blocks a line is a "relation <name>" header of a
// new name; in a block the first line is the scheme, whatever it says, and
// the rows, each of as many values, run to the line "end".
func blocksReference(text string) (map[string]refRelation, error) {
	db := map[string]refRelation{}
	var name string
	var cur *refRelation // nil between blocks
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0 || strings.HasPrefix(fields[0], "#"):
		case cur == nil:
			if len(fields) != 2 || fields[0] != "relation" {
				return nil, fmt.Errorf("header %q", fields)
			}
			if _, dup := db[fields[1]]; dup {
				return nil, fmt.Errorf("duplicate relation %q", fields[1])
			}
			name, cur = fields[1], &refRelation{rows: map[string]bool{}}
		case cur.attrs == nil:
			seen := map[string]bool{}
			for _, a := range fields {
				if seen[a] {
					return nil, fmt.Errorf("duplicate attribute %q", a)
				}
				seen[a] = true
			}
			cur.attrs = fields
		case len(fields) == 1 && fields[0] == "end":
			db[name], cur = *cur, nil
		case len(fields) != len(cur.attrs):
			return nil, fmt.Errorf("%d values under %d attributes", len(fields), len(cur.attrs))
		default:
			cur.rows[strings.Join(fields, " ")] = true
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("relation %q not terminated", name)
	}
	return db, nil
}

// FuzzParseRelation parses bare texts against a reference that is
// strings.Fields and a set: the first meaningful line names the
// attributes, every later one is a row of as many values or an error, and
// blank lines, comment lines and repeated rows add nothing. The seeds put
// their blank, comment and duplicate lines after SizeSample rows, where
// the dedup index has been sized from a forecast and, when the rows fall
// short of half of it, fitted; every row must still be found through it.
func FuzzParseRelation(f *testing.F) {
	for _, rows := range []int{SizeSample - 1, SizeSample, SizeSample + 1} {
		var b strings.Builder
		b.WriteString("A B\n")
		for i := 0; i < rows; i++ {
			fmt.Fprintf(&b, "a%d b%d\n", i, i%3)
		}
		b.WriteString("\n# after the sample\na0 b0\n  a1\tb1  \n\n")
		f.Add(b.String())
		f.Add(b.String() + "a-last b-last")
		f.Add(b.String() + strings.Repeat("# filler\n", 100)) // forecast past twice the rows: fitted
	}
	f.Add("A\n")
	f.Add("A B\n1\n")
	f.Add("A A\n1 1\n")
	f.Add("# only a comment\n\n")
	f.Fuzz(func(t *testing.T, text string) {
		attrs, rows, refErr := bareReference(text)
		if attrs != nil && len(attrs) == 2 && attrs[0] == "relation" {
			return // a block header: ParseRelation reads the block form first
		}
		_, r, err := ParseRelation(text)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("ParseRelation error %v, the reference's %v", err, refErr)
		}
		if err != nil {
			return
		}
		if got := r.Scheme().String(); got != strings.Join(attrs, " ") {
			t.Fatalf("scheme %q, the reference's %q", got, attrs)
		}
		if r.Len() != len(rows) {
			t.Fatalf("%d rows, the reference's %d", r.Len(), len(rows))
		}
		for i := 0; i < r.Len(); i++ {
			if !rows[strings.Join(quoted(r.Tuple(i)), " ")] {
				t.Fatalf("row %v is not the reference's", r.Tuple(i))
			}
			if !r.Contains(r.Tuple(i)) || r.MustAdd(r.Tuple(i).Clone()) {
				t.Fatalf("row %d, %v, is not found through the index", i, r.Tuple(i))
			}
		}
	})
}

// bareReference reads text as bare codec text with nothing but
// strings.Fields: the attributes of the first line that has a field and
// does not open with '#', and the set of later such lines, each keyed by
// its quoted fields.
func bareReference(text string) (attrs []string, rows map[string]bool, err error) {
	rows = map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0 || strings.HasPrefix(fields[0], "#"):
		case attrs == nil:
			seen := map[string]bool{}
			for _, a := range fields {
				if seen[a] {
					return fields, nil, fmt.Errorf("duplicate attribute %q", a)
				}
				seen[a] = true
			}
			attrs = fields
		case len(fields) != len(attrs):
			return attrs, nil, fmt.Errorf("%d values under %d attributes", len(fields), len(attrs))
		default:
			rows[strings.Join(quoted(TupleOf(fields...)), " ")] = true
		}
	}
	if attrs == nil {
		return nil, nil, fmt.Errorf("no scheme line")
	}
	return attrs, rows, nil
}

// rowKey is t's values joined by a space, blocksReference's key of a row.
func rowKey(t Tuple) string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(string(v))
	}
	return b.String()
}

// quoted returns t's values, each Go-quoted.
func quoted(t Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = fmt.Sprintf("%q", v)
	}
	return out
}

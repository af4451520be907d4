package relation

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// FuzzReadDatabase checks the codec never panics, accepted databases
// survive a write/read cycle, and every line splits into the row
// strings.Fields would split it into — the codec splits in place, into the
// store's next row, and must agree on all of unicode.IsSpace, not only on
// the ASCII blanks.
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
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, line := range strings.Split(src, "\n") {
			want := strings.Fields(line)
			attrs := make([]Attribute, len(want))
			for i := range attrs {
				attrs[i] = Attribute(fmt.Sprint("c", i))
			}
			for _, arity := range []int{len(want), len(want) + 1} { // the row it fits, and one it does not
				r := New(MustScheme(append(attrs, "extra")[:arity]...))
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
		db, err := ReadDatabase(strings.NewReader(src))
		if err != nil {
			return
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

package relation

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/big"
	"math/bits"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

func TestCodecRoundTrip(t *testing.T) {
	r := rel(t, "A B C", "1 e a", "0 x b", "1 1 a")
	var buf bytes.Buffer
	if err := WriteRelation(&buf, "T", r); err != nil {
		t.Fatal(err)
	}
	name, back, err := ReadRelation(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != "T" {
		t.Errorf("name = %q", name)
	}
	if !back.Equal(r) {
		t.Errorf("round trip lost tuples:\n%s", RenderSorted(back))
	}
}

func TestReadDatabaseMultiple(t *testing.T) {
	input := `
# two relations
relation R
A B
1 2
3 4
end

relation S
B C
2 x
end
`
	db, err := ReadDatabase(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Names(); len(got) != 2 || got[0] != "R" || got[1] != "S" {
		t.Fatalf("Names = %v", got)
	}
	r, err := db.Get("R")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Errorf("R.Len = %d", r.Len())
	}
	if _, err := db.Get("Missing"); err == nil {
		t.Error("Get(Missing) succeeded")
	}
}

func TestReadRelationBareForm(t *testing.T) {
	input := `
# bare relation, no header
A B
1 x
2 y
`
	name, r, err := ReadRelation(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if name != "" {
		t.Errorf("name = %q, want empty", name)
	}
	if r.Len() != 2 || r.Scheme().String() != "A B" {
		t.Errorf("parsed %v", r)
	}
}

// TestParsedSchemeDoesNotPinTheText: an upload's values are substrings of
// its text, which lives as long as the relation; its attribute names are
// copies, because schemes outlive the relation in the plan facts of every
// join over it (join.Facts) and would otherwise keep every old upload of a
// churning catalog alive. A catalog's relation names are copies too, and
// each of its relations reads its values from a copy of its own block: no
// value lies in the catalog's text, nor among another relation's values.
func TestParsedSchemeDoesNotPinTheText(t *testing.T) {
	within := func(s, text string) bool {
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(text)))
		return p >= lo && p < lo+uintptr(len(text))
	}
	for _, text := range []string{"Alpha Beta\n1 x\n2 y\n", "relation Named\nAlpha Beta\n1 x\n2 y\nend\n"} {
		name, r, err := ParseRelation(text)
		if err != nil {
			t.Fatal(err)
		}
		if name != "" && within(name, text) {
			t.Errorf("name %q is a substring of the upload", name)
		}
		for i := 0; i < r.Scheme().Len(); i++ {
			if within(string(r.Scheme().Attr(i)), text) {
				t.Errorf("attribute %q is a substring of the upload", r.Scheme().Attr(i))
			}
		}
		if !within(string(r.Tuple(0)[1]), text) {
			t.Errorf("%q: values are copies of the upload: the zero-copy read is gone, and this test with it", text)
		}
	}

	catalog := "relation First\nAlpha Beta\n1 x\n2 y\nend\n# between\nrelation Second\nGamma\nz\nw\nend\n"
	db, err := ParseDatabase(catalog)
	if err != nil || len(db) != 2 {
		t.Fatal(db, err)
	}
	spans := map[string][2]uintptr{} // a relation's values lie in [lo, hi)
	for name, r := range db {
		lo, hi := ^uintptr(0), uintptr(0)
		r.Each(func(row Tuple) bool {
			for _, v := range row {
				p := uintptr(unsafe.Pointer(unsafe.StringData(string(v))))
				lo, hi = min(lo, p), max(hi, p+uintptr(len(v)))
			}
			return true
		})
		spans[name] = [2]uintptr{lo, hi}
		if within(name, catalog) {
			t.Errorf("relation name %q is a substring of the catalog", name)
		}
		for i := 0; i < r.Scheme().Len(); i++ {
			if within(string(r.Scheme().Attr(i)), catalog) {
				t.Errorf("%s: attribute %q is a substring of the catalog", name, r.Scheme().Attr(i))
			}
		}
	}
	for name, r := range db {
		r.Each(func(row Tuple) bool {
			for _, v := range row {
				p := uintptr(unsafe.Pointer(unsafe.StringData(string(v))))
				if within(string(v), catalog) {
					t.Errorf("%s: value %q lies in the catalog's text", name, v)
				}
				for other, span := range spans {
					if other != name && p >= span[0] && p < span[1] {
						t.Errorf("%s: value %q lies among %s's values", name, v, other)
					}
				}
			}
			return true
		})
	}
}

// TestDroppedRelationFreesItsBlock: a catalog's relation pins the copy of
// its own block and nothing more, so a catalog that keeps one relation of
// two and drops the other — as a tenant does when the other is replaced —
// keeps the one relation's text alone, not the 4 MB block of the other,
// which a value cut from the whole text, or from one copy of it, would keep.
func TestDroppedRelationFreesItsBlock(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := func() *Relation {
		var b strings.Builder
		b.WriteString("relation Small\nA\n1\n2\nend\nrelation Big\nA\n")
		for i := 0; i < 64; i++ {
			fmt.Fprintf(&b, "%s%d\n", strings.Repeat("x", 64<<10), i)
		}
		b.WriteString("end\n")
		db, err := ParseDatabase(b.String())
		if err != nil || db["Big"].Len() != 64 {
			t.Fatal(db, err)
		}
		return db["Small"]
	}()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if held := int64(after.HeapAlloc) - int64(before.HeapAlloc); held > 1<<20 {
		t.Errorf("a two-row relation of a catalog keeps %d bytes alive", held)
	}
	if kept.Len() != 2 {
		t.Errorf("the kept relation holds %d rows", kept.Len())
	}
}

// TestReadDatabaseErrors pins each error as the codec words it, line
// numbers counted over the whole text included: a row's error comes before
// the missing "end" it lies above, and a CRLF text numbers its lines as an
// LF one does.
func TestReadDatabaseErrors(t *testing.T) {
	cases := []struct {
		name, input, want string
	}{
		{"bad header", "relational R\nA B\nend\n", `relation: line 1: expected "relation <name>", got "relational R"`},
		{"three-field header", "relation R S\nA\nend\n", `relation: line 1: expected "relation <name>", got "relation R S"`},
		{"text after the last end", "relation R\nA\n1\nend\ngarbage here\n", `relation: line 5: expected "relation <name>", got "garbage here"`},
		{"missing end", "relation R\nA B\n1 2\n", `relation: relation "R" not terminated by "end"`},
		{"scheme line reads end", "relation R\nend\n", `relation: relation "R" not terminated by "end"`},
		{"arity mismatch", "relation R\nA B\n1\nend\n", "relation: line 3: tuple has 1 values, scheme A B has 2 attributes"},
		{"arity mismatch, no end", "relation R\nA B\n1\n", "relation: line 3: tuple has 1 values, scheme A B has 2 attributes"},
		{"arity mismatch, CRLF", "\n\nrelation R\r\nA B\r\n# x\r\n\r\n1 2 3\r\nend\r\n", "relation: line 7: tuple has 3 values, scheme A B has 2 attributes"},
		{"duplicate name", "relation R\nA\n1\nend\nrelation R\nA\n2\nend\n", `relation: line 5: duplicate relation "R"`},
		{"missing scheme", "relation R\n", `relation: line 1: relation "R" missing scheme line`},
		{"missing scheme after filler", "relation R\n\n# c\n", `relation: line 3: relation "R" missing scheme line`},
		{"dup attribute", "relation R\nA A\nend\n", `relation: line 2: relation: duplicate attribute "A" at positions 0 and 1`},
	}
	for _, tc := range cases {
		_, err := ReadDatabase(strings.NewReader(tc.input))
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %s", tc.name, err, tc.want)
		}
		if _, perr := ParseDatabase(tc.input); fmt.Sprint(perr) != fmt.Sprint(err) {
			t.Errorf("%s: ParseDatabase says %v, ReadDatabase %v", tc.name, perr, err)
		}
	}
	if _, _, err := ReadRelation(strings.NewReader("   \n# only comments\n")); err == nil || err.Error() != "relation: empty input" {
		t.Errorf("empty input: error %v", err)
	}
	if _, _, err := ReadRelation(strings.NewReader("relation R\nA\n1\nend\nrelation S\nA\n1\nend\n")); err == nil || err.Error() != "relation: expected exactly one relation, found 2" {
		t.Errorf("two blocks: error %v", err)
	}
}

func TestWriteDatabaseDeterministic(t *testing.T) {
	db := NewDatabase()
	db.Put("B", rel(t, "X", "1"))
	db.Put("A", rel(t, "Y", "2"))
	var buf bytes.Buffer
	if err := WriteDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Index(out, "relation A") > strings.Index(out, "relation B") {
		t.Error("relations not written in name order")
	}
	back, err := ReadDatabase(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Errorf("round trip lost relations: %v", back.Names())
	}
}

func TestRender(t *testing.T) {
	r := rel(t, "F1 X1 S", "1 0 a", "e 1 b")
	out := Render(r, RenderOptions{SortRows: true})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "F1") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1") { // sorted: "1 0 a" before "e 1 b"
		t.Errorf("first row = %q", lines[1])
	}
	// Columns align: "0" in the first row sits under "X1" in the header.
	if strings.Index(lines[0], "X1") != strings.Index(lines[1], "0") {
		t.Errorf("column misaligned:\n%q\n%q", lines[0], lines[1])
	}
}

// oldXORFingerprint reproduces the pre-fix combining scheme — a bare XOR
// fold of per-tuple FNV digests — so the regression test below can prove
// the engineered pair collided under it.
func oldXORFingerprint(r *Relation) string {
	h := fnv.New64a()
	h.Write([]byte(r.scheme.String()))
	schemeSum := h.Sum64()
	var tupleSum uint64
	for i := 0; i < r.n; i++ {
		th := fnv.New64a()
		th.Write([]byte(r.at(i).key()))
		tupleSum ^= th.Sum64()
	}
	return strconv.FormatUint(schemeSum, 16) + "-" +
		strconv.FormatUint(tupleSum, 16) + "-" +
		strconv.Itoa(r.n)
}

// TestFingerprintXORCancellationRegression engineers two disjoint
// relations of equal cardinality over the same scheme whose per-tuple
// digests XOR to the same value, so the old bare-XOR fold fingerprinted
// them identically — the stale-hit soundness hole for the subexpression
// cache. The pair is found deterministically, not by luck: 80 tuple
// digests are 64-bit vectors over GF(2), so Gaussian elimination must
// find linearly dependent subsets (any 65 vectors are dependent); a
// dependent subset XORs to zero, and splitting it in half gives two tuple
// sets with equal XOR and equal cardinality. The fixed fingerprint must
// tell them apart.
func TestFingerprintXORCancellationRegression(t *testing.T) {
	scheme := MustScheme("X")
	const n = 80
	vals := make([]string, n)
	digests := make([]uint64, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%03d", i)
		th := fnv.New64a()
		th.Write([]byte(TupleOf(vals[i]).key()))
		digests[i] = th.Sum64()
	}

	// Gaussian elimination over GF(2), tracking which input digests each
	// reduced row combines; a row that reduces to zero yields a subset
	// mask whose digests XOR-cancel.
	popcount := func(m *big.Int) int {
		c := 0
		for i := 0; i < n; i++ {
			if m.Bit(i) == 1 {
				c++
			}
		}
		return c
	}
	type row struct {
		vec  uint64
		mask *big.Int
	}
	basis := map[int]row{} // pivot bit index -> row
	var cancelling *big.Int
	var oddMask *big.Int
	for i := 0; i < n && cancelling == nil; i++ {
		vec, mask := digests[i], new(big.Int).SetBit(new(big.Int), i, 1)
		for vec != 0 {
			p := bits.Len64(vec) - 1
			b, ok := basis[p]
			if !ok {
				basis[p] = row{vec, mask}
				break
			}
			vec ^= b.vec
			mask = new(big.Int).Xor(mask, b.mask)
		}
		if vec != 0 {
			continue
		}
		// mask's subset XORs to zero. An equal-cardinality split needs an
		// even subset; two odd subsets combine (symmetric difference) to
		// an even one.
		switch pc := popcount(mask); {
		case pc%2 == 0 && pc >= 4:
			cancelling = mask
		case pc%2 == 1 && oddMask == nil:
			oddMask = mask
		case pc%2 == 1:
			if c := new(big.Int).Xor(oddMask, mask); popcount(c)%2 == 0 && popcount(c) >= 4 {
				cancelling = c
			}
		}
	}
	if cancelling == nil {
		t.Fatal("no even-size XOR-cancelling subset among 80 digests; elimination is broken (>=16 dependencies exist)")
	}

	var subset []int
	for i := 0; i < n; i++ {
		if cancelling.Bit(i) == 1 {
			subset = append(subset, i)
		}
	}
	half := len(subset) / 2
	r1, r2 := New(scheme), New(scheme)
	for _, i := range subset[:half] {
		r1.MustAdd(TupleOf(vals[i]))
	}
	for _, i := range subset[half:] {
		r2.MustAdd(TupleOf(vals[i]))
	}
	if r1.Equal(r2) || r1.Len() != r2.Len() {
		t.Fatalf("engineered relations must be different sets of equal cardinality (%d vs %d)", r1.Len(), r2.Len())
	}
	if o1, o2 := oldXORFingerprint(r1), oldXORFingerprint(r2); o1 != o2 {
		t.Fatalf("engineered pair does not collide under the old XOR fold: %s vs %s", o1, o2)
	}
	if f1, f2 := Fingerprint(r1), Fingerprint(r2); f1 == f2 {
		t.Fatalf("different relations still fingerprint-equal after the fix: %s", f1)
	}
}

// TestFingerprintOrderIndependent pins the commutativity contract: the
// fold must not depend on insertion order.
func TestFingerprintOrderIndependent(t *testing.T) {
	a := rel(t, "A B", "1 x", "2 y", "3 z")
	b := rel(t, "A B", "3 z", "1 x", "2 y")
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("fingerprint depends on insertion order")
	}
	c := rel(t, "A B", "1 x", "2 y")
	if Fingerprint(a) == Fingerprint(c) {
		t.Error("subset fingerprints equal")
	}
}

// TestReadRelationFirstAttributeNamedRelation covers the misparse fixed
// in ReadRelation: bare relations whose scheme starts with an attribute
// literally named "relation" used to be rejected as malformed block
// headers. Block-form inputs must keep parsing as blocks.
func TestReadRelationFirstAttributeNamedRelation(t *testing.T) {
	// Bare, three attributes: "relation kind count" cannot be a block
	// header (headers have exactly two fields).
	name, r, err := ReadRelation(strings.NewReader("relation kind count\nr1 base 10\nr2 view 20\n"))
	if err != nil {
		t.Fatalf("bare relation with first attribute %q rejected: %v", "relation", err)
	}
	if name != "" || r.Len() != 2 || r.Scheme().Len() != 3 {
		t.Fatalf("bare parse: name=%q len=%d scheme=%v", name, r.Len(), r.Scheme())
	}

	// Bare, two attributes: "relation B" is also a valid block header,
	// but the input has no scheme-plus-end block structure, so the bare
	// grammar must win.
	name, r, err = ReadRelation(strings.NewReader("relation B\nx 1\ny 2\nz 3\n"))
	if err != nil {
		t.Fatalf("ambiguous two-field scheme rejected: %v", err)
	}
	if name != "" || r.Len() != 3 || r.Scheme().Len() != 2 {
		t.Fatalf("ambiguous bare parse: name=%q len=%d scheme=%v", name, r.Len(), r.Scheme())
	}

	// Block form still parses as a block, including when the block's own
	// scheme starts with an attribute named "relation".
	name, r, err = ReadRelation(strings.NewReader("relation T\nrelation B\nx 1\nend\n"))
	if err != nil {
		t.Fatal(err)
	}
	if name != "T" || r.Len() != 1 || r.Scheme().Len() != 2 {
		t.Fatalf("block parse: name=%q len=%d scheme=%v", name, r.Len(), r.Scheme())
	}

	// A malformed block that cannot be read bare either reports the block
	// error (the input led with a header-shaped line).
	_, _, err = ReadRelation(strings.NewReader("relation T\nA B\n1 2 3\n"))
	if err == nil || !strings.Contains(err.Error(), "relation") {
		t.Fatalf("malformed input accepted: %v", err)
	}
}

package relation

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"unicode"
)

// The text format read and written here is line-oriented:
//
//	# comment lines and blank lines are ignored between relations
//	relation T
//	F1 F2 X1 S        <- scheme line: whitespace-separated attributes
//	1  e  0  a        <- one tuple per line, whitespace-separated values
//	e  1  1  a
//	end
//
// A file may contain any number of "relation <name> ... end" blocks; a
// bare relation (scheme line followed by tuples, no header/footer) is also
// accepted by ReadRelation for quick one-relation files. Values and
// attribute names are arbitrary non-whitespace tokens.

// Fingerprint returns a deterministic content hash of the relation: two
// relations fingerprint equal exactly when they hold the same set of
// tuples over the same scheme (column order included), however they were
// built. It is the cache key ingredient used by the algebra evaluator's
// subexpression cache — an expression evaluated against relations with
// unchanged fingerprints must produce the same result.
//
// The hash is order-independent: each tuple's digest is its Tuple.Hash
// (value bytes with the value boundaries mixed in — no serialized key)
// and the 64-bit digests are combined commutatively, with no sorting.
//
// It is memoized on the relation. Relations only grow, so a memo that
// covers all n rows is current: on an unchanged relation
// Fingerprint is one atomic load and allocates nothing, and after Adds
// it folds in only the new rows. That makes SubexprCache.key cost
// O(operands) per node per request rather than O(rows). Concurrent calls
// are safe: racing callers compute the same memo and either store wins.
//
// The commutative fold is cancellation-resistant: each digest d
// contributes both to a wrapping sum and to an XOR of d rotated by its
// own low bits. A bare XOR fold (the original scheme) let any two tuple
// sets whose digests XOR to the same value — engineerable by Gaussian
// elimination over GF(2), see TestFingerprintXORCancellationRegression —
// collide at equal cardinality, a stale-hit soundness hole for the
// subexpression cache keyed on this value. Defeating the combined fold
// requires simultaneously solving a linear system over Z/2^64 and a
// digest-dependent rotated system over GF(2)^64, which no longer
// factors into independent per-bit equations.
func Fingerprint(r *Relation) string {
	old := r.fp.Load()
	if old != nil && old.rows == r.n {
		return old.text
	}
	fp := fingerprint{}
	if old != nil {
		fp = *old
	}
	for i := fp.rows; i < r.n; i++ {
		d := r.at(i).Hash()
		fp.sum += d
		fp.rot ^= bits.RotateLeft64(d, int(d&63))
	}
	fp.rows = r.n
	h := fnv.New64a()
	h.Write([]byte(r.scheme.String()))
	fp.text = strconv.FormatUint(h.Sum64(), 16) + "-" +
		strconv.FormatUint(fp.sum, 16) + "-" +
		strconv.FormatUint(fp.rot, 16) + "-" +
		strconv.Itoa(fp.rows)
	r.fp.Store(&fp)
	return fp.text
}

// fingerprint is Fingerprint's memo: the fold over the first rows tuples
// and its rendering as scheme-sum-rot-len.
type fingerprint struct {
	rows     int
	sum, rot uint64
	text     string
}

// FingerprintDatabase fingerprints the named relations of db, rendering
// "name=fp" pairs in sorted name order joined by ";". Unknown names
// render as "name=!missing" so the caller's key is still deterministic.
func FingerprintDatabase(db Database, names []string) string {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	var b strings.Builder
	for i, name := range sorted {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(name)
		b.WriteByte('=')
		if r, ok := db[name]; ok {
			b.WriteString(Fingerprint(r))
		} else {
			b.WriteString("!missing")
		}
	}
	return b.String()
}

// WriteRelation writes r as a single "relation <name> ... end" block,
// rows in sorted order: a Replay of r through a BlockWriter. The rows are
// a sorted view of r's own tuples, not copies of them, and a BornSorted
// relation is walked in store order. A w that is a large enough
// bufio.Writer is written through directly.
func WriteRelation(w io.Writer, name string, r *Relation) error {
	b := BlockWriter{W: bufio.NewWriter(w), Name: name}
	Replay(r, &b)
	if err := b.End(); err != nil {
		return err
	}
	return b.W.Flush()
}

// WriteDatabase writes every relation of db in name order.
func WriteDatabase(w io.Writer, db Database) error {
	for _, name := range db.Names() {
		if err := WriteRelation(w, name, db[name]); err != nil {
			return err
		}
	}
	return nil
}

// ReadDatabase is ParseDatabase of the text r holds, read once.
func ReadDatabase(r io.Reader) (Database, error) {
	var text strings.Builder
	if _, err := io.Copy(&text, r); err != nil {
		return nil, err
	}
	return ParseDatabase(text.String())
}

// ParseDatabase parses all relation blocks of text. Each block is read
// from one copy of its own text, so a relation's values pin that copy and
// nothing else: replacing one relation of a catalog frees its text.
func ParseDatabase(text string) (Database, error) {
	return readBlocks(text, true)
}

// readBlocks reads each "relation <name> ... end" block of text through
// readBody — the first meaningful line after the header is the scheme line,
// whatever it says — in a copy of its own if copied is set, else in place.
func readBlocks(text string, copied bool) (Database, error) {
	db := NewDatabase()
	l := lines{text: text}
	for line := l.next(); line != ""; line = l.next() {
		fields := strings.Fields(line)
		if fields[0] != "relation" || len(fields) != 2 {
			return nil, fmt.Errorf("relation: line %d: expected \"relation <name>\", got %q", l.n, line)
		}
		name := strings.Clone(fields[1])
		if _, dup := db[name]; dup {
			return nil, fmt.Errorf("relation: line %d: duplicate relation %q", l.n, name)
		}
		body := l
		if l.next() == "" {
			return nil, fmt.Errorf("relation: line %d: relation %q missing scheme line", l.n, name)
		}
		rest, end := l.text, ""
		for end = l.next(); end != "end" && end != ""; end = l.next() {
			rest = l.text
		}
		body.text = body.text[:len(body.text)-len(rest)]
		if copied {
			body.text = strings.Clone(body.text)
		}
		rel, err := readBody(body, true)
		if err == nil && end == "" { // a row's error lies before the end of the text: it comes first
			err = fmt.Errorf("relation: relation %q not terminated by \"end\"", name)
		}
		if err != nil {
			return nil, err
		}
		db.Put(name, rel)
	}
	return db, nil
}

// ReadRelation parses a single relation. It accepts either a full
// "relation <name> ... end" block (returning that name) or a bare relation:
// a scheme line followed by tuple lines until EOF (returned name is "").
//
// The two forms are disambiguated structurally, not by prefix alone: a
// block header is exactly the two fields "relation <name>", so a bare
// relation whose first attribute happens to be named "relation" with two
// or more further attributes is unambiguous. The genuinely ambiguous
// two-field case ("relation B" is both a valid block header and a valid
// two-attribute scheme) is resolved by trying the block grammar first —
// it is the stricter one, requiring a scheme line and an "end" footer —
// and falling back to the bare form when the block parse fails.
func ReadRelation(r io.Reader) (name string, rel *Relation, err error) {
	var text strings.Builder
	if _, err := io.Copy(&text, r); err != nil {
		return "", nil, err
	}
	return ParseRelation(text.String())
}

// ParseRelation is ReadRelation for a caller that holds the whole text
// already — an upload handler that read the body into one buffer of the
// declared length. The relation's values are substrings of text.
func ParseRelation(text string) (name string, rel *Relation, err error) {
	// Decide on the first meaningful (non-blank, non-comment) line.
	if f := strings.Fields((&lines{text: text}).next()); len(f) != 2 || f[0] != "relation" {
		rel, err = readBody(lines{text: text}, false)
		return "", rel, err
	}
	db, err := readBlocks(text, false)
	if err != nil {
		// Not a well-formed block: re-read as a bare relation whose scheme
		// is the two-field first line. If that fails too, the block error
		// is the more informative one — the input led with "relation".
		if rel, bareErr := readBody(lines{text: text}, false); bareErr == nil {
			return "", rel, nil
		}
		return "", nil, err
	}
	if len(db) != 1 {
		return "", nil, fmt.Errorf("relation: expected exactly one relation, found %d", len(db))
	}
	name = db.Names()[0]
	return name, db[name], nil
}

// readBody is the codec's one reader of rows: it parses the rest of l,
// the bare form or a block's body, whose first meaningful line is the
// scheme line and every later one a row. A block's arity error names its
// scheme.
func readBody(l lines, block bool) (*Relation, error) {
	line := l.next()
	if line == "" {
		return nil, fmt.Errorf("relation: empty input")
	}
	// The attribute names are copied out of the text: unlike the values,
	// they outlive the relation, in the plan facts of every join over it,
	// and must not pin the whole upload.
	scheme, err := SchemeOf(strings.Clone(line))
	if err != nil {
		return nil, fmt.Errorf("relation: line %d: %w", l.n, err)
	}
	// Count first: no more rows than lines are left, nor than the bytes
	// left can write — a row's line is at least two bytes a value. Blank,
	// comment and duplicate lines make no row, so the reservation is
	// fitted to the rows at the end.
	total, left, head := len(l.text), strings.Count(l.text, "\n"), l.n
	if !strings.HasSuffix(l.text, "\n") {
		left++
	}
	out := New(scheme)
	out.reserve(min(left, total/(2*scheme.Len())+1))
	for line := l.next(); line != ""; line = l.next() {
		if n := out.addLine(line); n != scheme.Len() {
			if block {
				return nil, fmt.Errorf("relation: line %d: tuple has %d values, scheme %v has %d attributes", l.n, n, scheme, scheme.Len())
			}
			return nil, fmt.Errorf("relation: line %d: tuple has %d values, scheme has %d attributes", l.n, n, scheme.Len())
		}
		if out.n == SizeSample {
			// The dedup index is sized once, from its first rows: the rows
			// the bytes left will write at the rate the bytes read wrote
			// them, and no more than the lines left. Filler lines after the
			// sample make it an over-estimate, which fit gives back; a
			// duplicate of a sample row forecasts no more: it reserves nothing.
			out.index.Reserve(Forecast(out.n, total-len(l.text), total, out.n+left-(l.n-head)))
		}
	}
	out.fit()
	return out, nil
}

// lines walks a codec text line by line: text is what is left of it, n
// the number of the line last cut.
type lines struct {
	text string
	n    int
}

// next cuts the lines up to the next meaningful one and returns it,
// trimmed, or "" at the end of the text: blank and comment lines are
// skipped.
func (l *lines) next() string {
	for l.text != "" {
		var line string
		line, l.text, _ = strings.Cut(l.text, "\n")
		l.n++
		if line = strings.TrimSpace(line); line != "" && line[0] != '#' {
			return line
		}
	}
	return ""
}

// addLine adds the tuple written on line — its whitespace-separated
// fields, split exactly as strings.Fields splits them — and returns the
// number of fields. The fields are split straight into the store's next
// row, with no []string and no copy in between; the values are substrings
// of line. A line whose field count is not the scheme's arity adds
// nothing (the caller reports it), and neither does a duplicate: either
// way the row goes back to the store.
func (r *Relation) addLine(line string) int {
	row := r.next()
	n, start := 0, -1
	field := func(end int) {
		if n < len(row) {
			row[n] = Value(line[start:end])
		}
		n++
		start = -1
	}
	for i, c := range line {
		switch {
		case !unicode.IsSpace(c):
			if start < 0 {
				start = i
			}
		case start >= 0:
			field(i)
		}
	}
	if start >= 0 {
		field(len(line))
	}
	if n == len(row) {
		r.commit(row)
	}
	return n
}

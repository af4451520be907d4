package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"relquery/internal/relation"
)

// digest identifies a set of tuples whatever order its rows and columns
// come in: each row is hashed as its attribute=value pairs in attribute
// order, and the row hashes are summed.
type digest struct {
	rows int
	sum  uint64
}

// rowDigester folds rows over one column order into a digest.
type rowDigester struct {
	attrs []string
	perm  []int // column indices in attribute order
	d     digest
}

func newRowDigester(attrs []string) *rowDigester {
	perm := make([]int, len(attrs))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return attrs[perm[a]] < attrs[perm[b]] })
	return &rowDigester{attrs: attrs, perm: perm}
}

func (r *rowDigester) add(value func(col int) string) {
	h := fnv.New64a()
	for _, col := range r.perm {
		h.Write([]byte(r.attrs[col]))
		h.Write([]byte{'='})
		h.Write([]byte(value(col)))
		h.Write([]byte{0})
	}
	r.d.rows++
	r.d.sum += h.Sum64()
}

func digestRelation(rel *relation.Relation) digest {
	attrs := make([]string, rel.Scheme().Len())
	for i := range attrs {
		attrs[i] = string(rel.Scheme().Attr(i))
	}
	r := newRowDigester(attrs)
	rel.Each(func(t relation.Tuple) bool {
		r.add(func(col int) string { return string(t[col]) })
		return true
	})
	return r.d
}

// digestBody reads a query answer as relqueryd streams it — comment
// lines, "relation result", the scheme line, one tuple per line, "end" —
// without going through the program's own codec.
func digestBody(body []byte) (digest, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	var r *rowDigester
	state := 0 // 0 before the header, 1 before the scheme, 2 in the tuples, 3 after "end"
	for sc.Scan() {
		line := sc.Text()
		switch {
		case state == 0 && (line == "" || strings.HasPrefix(line, "#")):
		case state == 0 && line == "relation result":
			state = 1
		case state == 1:
			r = newRowDigester(strings.Fields(line))
			state = 2
		case state == 2 && line == "end":
			state = 3
		case state == 2:
			vals := strings.Fields(line)
			if len(vals) != len(r.attrs) {
				return digest{}, fmt.Errorf("answer row %q has %d values over %d attributes", line, len(vals), len(r.attrs))
			}
			r.add(func(col int) string { return vals[col] })
		default:
			return digest{}, fmt.Errorf("unexpected answer line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return digest{}, err
	}
	if state != 3 {
		return digest{}, fmt.Errorf("answer ends before its \"end\" line")
	}
	return r.d, nil
}

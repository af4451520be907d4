package relation_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"relquery/internal/join"
	"relquery/internal/relation"
)

// TestStoredRowsAreViews is the storage contract, for a relation out of
// every producer: a stored row is a cap == len view of a backing array the
// relation owns, so an append on one row copies it and can never write
// into its neighbour — every other row, and the fingerprint of what the
// relation holds, stay as they were.
func TestStoredRowsAreViews(t *testing.T) {
	abc := relation.MustScheme("A", "B", "C")
	// 400 rows of three columns: past the first slabs and past one 8 KB slab.
	rows := make([][]string, 400)
	tuples := make([]relation.Tuple, len(rows))
	for i := range rows {
		rows[i] = []string{fmt.Sprint("a", i), fmt.Sprint("b", i%20), fmt.Sprint("c", i%7)}
		tuples[i] = relation.TupleOf(rows[i]...)
	}
	base, err := relation.FromRows(abc, rows...)
	if err != nil {
		t.Fatal(err)
	}
	other, err := relation.FromRows(relation.MustScheme("B", "D"), [][]string{{"b1", "d1"}, {"b2", "d2"}, {"b3", "d3"}, {"b3", "d4"}}...)
	if err != nil {
		t.Fatal(err)
	}
	var block bytes.Buffer
	if err := relation.WriteRelation(&block, "R", base); err != nil {
		t.Fatal(err)
	}
	bare := strings.TrimSuffix(strings.TrimPrefix(block.String(), "relation R\n"), "end\n")

	must := func(r *relation.Relation, err error) *relation.Relation {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	joined := func(alg join.Algorithm, l, r *relation.Relation) *relation.Relation {
		t.Helper()
		return must(join.Multi(join.Exec{}, join.NewPlan(l, r), alg, join.Greedy))
	}
	producers := map[string]*relation.Relation{
		"New/Add": func() *relation.Relation {
			r := relation.New(abc)
			for _, tp := range tuples {
				r.MustAdd(tp)
				r.MustAdd(tuples[0]) // a duplicate after every row, slab boundaries included
			}
			return r
		}(),
		"FromRows":   base,
		"FromTuples": must(relation.FromTuples(abc, tuples)),
		"codec block": func() *relation.Relation {
			db, err := relation.ReadDatabase(bytes.NewReader(block.Bytes()))
			return must(db["R"], err)
		}(),
		"codec bare": func() *relation.Relation {
			_, r, err := relation.ReadRelation(strings.NewReader(bare))
			return must(r, err)
		}(),
		"Project":    must(base.Project(relation.MustScheme("C", "B"))),
		"alignTo":    must(relation.AlignTo(base, relation.MustScheme("C", "A", "B"))),
		"Hash":       joined(join.Hash{}, base, other),
		"wcoj":       joined(join.Generic{}, base, other),
		"Yannakakis": joined(join.Yannakakis{}, base, other),
		"Semijoin":   must(join.Semijoin(base, other)),
		"Clone":      base.Clone(),
	}
	for name, r := range producers {
		if r.Len() < 2 {
			t.Errorf("%s: %d rows; the case proves nothing", name, r.Len())
			continue
		}
		before := relation.Fingerprint(r)
		want := r.Tuples()
		for i := 0; i < r.Len(); i++ {
			row := r.Tuple(i)
			if cap(row) != len(row) {
				t.Fatalf("%s: row %d has len %d but cap %d: an append would reach the next row", name, i, len(row), cap(row))
			}
			relation.AppendTo(row, "clobber")
		}
		rebuilt := relation.New(r.Scheme())
		for i := 0; i < r.Len(); i++ {
			if !r.Tuple(i).Equal(want[i]) {
				t.Fatalf("%s: row %d is %v after appends on the rows, was %v", name, i, r.Tuple(i), want[i])
			}
			rebuilt.MustAdd(r.Tuple(i))
		}
		if after := relation.Fingerprint(rebuilt); after != before {
			t.Errorf("%s: fingerprint %s after appends on the rows, was %s", name, after, before)
		}
	}
	if len(producers["New/Add"].Tuples()) != len(tuples) || !producers["New/Add"].Equal(base) {
		t.Errorf("New/Add with a duplicate after every row holds %d rows, want the %d of FromRows", producers["New/Add"].Len(), len(tuples))
	}
	if !producers["codec bare"].Equal(base) || !producers["codec block"].Equal(base) {
		t.Error("the codec does not return what was written")
	}
}

// TestEmptySchemeHoldsOneEmptyTuple: rows of width 0 take no memory, but
// they are still rows. The projection of a non-empty relation onto ∅ and
// the join of two such projections — the join's neutral element — hold
// exactly one empty tuple, and those of an empty relation none.
func TestEmptySchemeHoldsOneEmptyTuple(t *testing.T) {
	none := relation.MustScheme()
	full, err := relation.FromRows(relation.MustScheme("A"), []string{"1"}, []string{"2"})
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		of   *relation.Relation
		want int
	}{"non-empty": {full, 1}, "empty": {relation.New(full.Scheme()), 0}} {
		unit, err := tc.of.Project(none)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []join.Algorithm{join.Hash{}, join.Generic{}} {
			both, err := join.Multi(join.Exec{}, join.NewPlan(unit, unit.Clone()), alg, join.Greedy)
			if err != nil {
				t.Fatal(err)
			}
			for what, r := range map[string]*relation.Relation{"projection onto ∅": unit, alg.Name() + " join of two": both} {
				if r.Len() != tc.want || (tc.want == 1 && (len(r.Tuple(0)) != 0 || !r.Contains(relation.Tuple{}))) {
					t.Errorf("%s of the %s relation holds %d tuples %v, want %d empty tuple(s)", what, name, r.Len(), r.Tuples(), tc.want)
				}
			}
		}
	}
}

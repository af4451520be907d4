// Fixture for govloop: tuple loops in an engine-named package, with and
// without reachable governance.
package join

import (
	"relquery/internal/governor"
	"relquery/internal/relation"
)

func Ungoverned(g *governor.Governor, rows []relation.Tuple) int {
	n := 0
	for range rows { // want `range over tuples has no reachable governor Tick/Check`
		n++
	}
	return n
}

func Ticked(g *governor.Governor, rows []relation.Tuple) error {
	for range rows {
		if err := g.Tick(); err != nil {
			return err
		}
	}
	return nil
}

func viaHelper(g *governor.Governor) error { return g.Check() }

// Transitive reaches Check through a same-package helper.
func Transitive(g *governor.Governor, rows []relation.Tuple) error {
	for range rows {
		if err := viaHelper(g); err != nil {
			return err
		}
	}
	return nil
}

// Delegated hands the governor to opaque code; the callee governs.
func Delegated(g *governor.Governor, rows []relation.Tuple, sink func(*governor.Governor) error) error {
	for range rows {
		if err := sink(g); err != nil {
			return err
		}
	}
	return nil
}

// Exec mimics join.Exec: the governor travels inside it.
type Exec struct {
	Gov *governor.Governor
}

func ExecUngoverned(x Exec, rows []relation.Tuple) int {
	n := 0
	for range rows { // want `range over tuples has no reachable governor Tick/Check`
		n++
	}
	return n
}

func ExecTicked(x Exec, rows []relation.Tuple) error {
	for range rows {
		if err := x.Gov.Tick(); err != nil {
			return err
		}
	}
	return nil
}

// DelegatedExec hands the whole Exec to the callee, as a strategy does
// to an inner join.
func DelegatedExec(x Exec, rows []relation.Tuple, sink func(Exec) error) error {
	for range rows {
		if err := sink(x); err != nil {
			return err
		}
	}
	return nil
}

// LiteralIsNotDelegation: storing the governor in a struct literal hands
// it to nobody — only a call argument delegates.
func LiteralIsNotDelegation(g *governor.Governor, rows []relation.Tuple) {
	for range rows { // want `range over tuples has no reachable governor Tick/Check`
		_ = hashJoin{Gov: g}
	}
}

// NoGovernor has nothing to tick: exempt.
func NoGovernor(rows []relation.Tuple) int {
	n := 0
	for range rows {
		n++
	}
	return n
}

type hashJoin struct {
	Gov *governor.Governor
}

// FieldGovernor: the governor arrives via a struct field, so it is in
// scope even without a parameter.
func (h *hashJoin) emit(rows []relation.Tuple) {
	for _, t := range rows { // want `range over tuples has no reachable governor Tick/Check`
		_ = t
		_ = h.Gov
	}
}

func EachUngoverned(g *governor.Governor, r *relation.Relation) int {
	n := 0
	r.Each(func(t relation.Tuple) bool { // want `Relation\.Each callback has no reachable governor Tick/Check`
		n++
		return true
	})
	return n
}

func EachTicked(g *governor.Governor, r *relation.Relation) error {
	var err error
	r.Each(func(t relation.Tuple) bool {
		err = g.Tick()
		return err == nil
	})
	return err
}

// CountedUngoverned walks a relation's rows by position — the count pass
// of a count-first join — without a tick.
func CountedUngoverned(g *governor.Governor, r *relation.Relation) int {
	n := 0
	for i := 0; i < r.Len(); i++ { // want `counted loop over relation rows has no reachable governor Tick/Check`
		n++
	}
	return n
}

// CountedByTuple never mentions Len in its condition; reading Tuple at
// the loop's own variable is what makes it a row loop.
func CountedByTuple(g *governor.Governor, r *relation.Relation, ids []int32, lo, hi int) int {
	n := 0
	for p := lo; p < hi; p++ { // want `counted loop over relation rows has no reachable governor Tick/Check`
		n += len(r.Tuple(p))
	}
	for _, id := range ids { // want `counted loop over relation rows has no reachable governor Tick/Check`
		n += len(r.Tuple(int(id)))
	}
	return n
}

func CountedTicked(g *governor.Governor, r *relation.Relation) error {
	for i := 0; i < r.Len(); i++ {
		if err := g.Tick(); err != nil {
			return err
		}
		_ = r.Tuple(i)
	}
	return nil
}

// CountedElsewhere indexes something that is not a relation: exempt.
func CountedElsewhere(g *governor.Governor, r *relation.Relation, widths []int) int {
	n := 0
	for i := range widths {
		n += widths[i] + len(r.Tuple(0))
	}
	return n
}

// table mimics join.hashTable: rows chained through an index slice.
type table struct{ next []int32 }

func (t *table) first() int      { return 0 }
func (t *table) after(i int) int { return int(t.next[i]) }

// ChainUngoverned is the hash join's bucket walk with its Tick lost: under
// key skew one chain is the whole build side.
func ChainUngoverned(g *governor.Governor, t *table) int {
	n := 0
	for i := t.first(); i >= 0; i = t.after(i) { // want `index-chain loop has no reachable governor Tick/Check`
		n++
	}
	return n
}

func ChainTicked(g *governor.Governor, t *table) error {
	for i := t.first(); i >= 0; i = t.after(i) {
		if err := g.Tick(); err != nil {
			return err
		}
	}
	return nil
}

// ChainNoGovernor has nothing to tick: exempt, like the table's own
// candidate walk.
func ChainNoGovernor(t *table) int {
	n := 0
	for i := t.first(); i >= 0; i = t.after(i) {
		n++
	}
	return n
}

// liveChain mimics the tree join's per-request chain of a group's live
// rows: a slice of row indices walked in place, no method in sight.
type liveChain struct{ head, next []int32 }

// LiveChainUngoverned walks the chain through a slice read; the
// conversion around it is the call that makes it an index chain.
func LiveChainUngoverned(g *governor.Governor, c *liveChain) int {
	n := 0
	for r := int(c.head[0]); r >= 0; r = int(c.next[r]) { // want `index-chain loop has no reachable governor Tick/Check`
		n++
	}
	return n
}

// LiveChainTicked ticks per link, the dead ones it skips included.
func LiveChainTicked(g *governor.Governor, c *liveChain, dead []bool) error {
	for r := int(c.head[0]); r >= 0; r = int(c.next[r]) {
		if err := g.Tick(); err != nil {
			return err
		}
		if dead[r] {
			continue
		}
	}
	return nil
}

// Waived documents why the loop is cardinality-bounded.
func Waived(g *governor.Governor, rows []relation.Tuple) {
	//lint:ungoverned fixture rows are bounded by construction
	for range rows {
	}
}

// WaivedNoReason forgets the why: the waiver itself is the finding.
func WaivedNoReason(g *governor.Governor, rows []relation.Tuple) {
	//lint:ungoverned
	for range rows { // want `//lint:ungoverned needs a reason`
	}
}

// AttrLoop ranges one tuple's attributes: width-bounded, exempt.
func AttrLoop(g *governor.Governor, t relation.Tuple) int {
	n := 0
	for range t {
		n++
	}
	return n
}

// treeJoin mimics the tree join's executor state: the Exec travels in a
// field of the receiver.
type treeJoin struct {
	x    Exec
	rels []*relation.Relation
}

// sweepUngoverned never mentions the governor, but its receiver holds one:
// a method must not leave the analyzer's sight by losing its only Tick.
func (t *treeJoin) sweepUngoverned(i int, live []uint64) int {
	n := 0
	for r := 0; r < t.rels[i].Len(); r++ { // want `counted loop over relation rows has no reachable governor Tick/Check`
		if live[r>>6]&(1<<(r&63)) == 0 {
			continue
		}
		n++
	}
	return n
}

// sweepTicked ticks per live row through the receiver's Exec.
func (t *treeJoin) sweepTicked(i int, live []uint64) error {
	for r := 0; r < t.rels[i].Len(); r++ {
		if live[r>>6]&(1<<(r&63)) == 0 {
			continue
		}
		if err := t.x.Gov.Tick(); err != nil {
			return err
		}
	}
	return nil
}

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

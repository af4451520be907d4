// Package deps implements the dependency-theory substrate surrounding the
// paper: functional and join dependencies with satisfaction tests (the
// paper's co-NP-complete problem "is ∗π_{Y_i}(R) = R" is exactly join-
// dependency satisfaction, after Maier, Sagiv and Yannakakis 1981),
// attribute-set closure under FDs, hypergraph acyclicity via the GYO
// reduction, semijoins, and Yannakakis-style full reduction and acyclic
// join evaluation (the tractable counterpoint cited from Yannakakis 1981:
// acyclic project–join queries evaluate in polynomial time, while the
// paper's cyclic gadget queries provably do not, unless P = NP).
package deps

import (
	"fmt"
	"strings"

	"relquery/internal/relation"
)

// FD is a functional dependency From → To.
type FD struct {
	From, To relation.Scheme
}

// String renders the FD as "A B -> C".
func (fd FD) String() string {
	return fmt.Sprintf("%v -> %v", fd.From, fd.To)
}

// Validate checks that both sides live inside the given scheme.
func (fd FD) Validate(scheme relation.Scheme) error {
	if !scheme.ContainsAll(fd.From) {
		return fmt.Errorf("deps: FD %v: left side not within %v", fd, scheme)
	}
	if !scheme.ContainsAll(fd.To) {
		return fmt.Errorf("deps: FD %v: right side not within %v", fd, scheme)
	}
	return nil
}

// HoldsIn reports whether the relation satisfies the FD: any two tuples
// agreeing on From agree on To.
func (fd FD) HoldsIn(r *relation.Relation) (bool, error) {
	if err := fd.Validate(r.Scheme()); err != nil {
		return false, err
	}
	keyProj, err := projector(r.Scheme(), fd.From)
	if err != nil {
		return false, err
	}
	valProj, err := projector(r.Scheme(), fd.To)
	if err != nil {
		return false, err
	}
	// image[i] is the To-projection of the first tuple carrying the i-th
	// distinct From-projection; every later one must repeat it.
	var seen relation.TupleSet
	var image []relation.Tuple
	holds := true
	r.Each(func(t relation.Tuple) bool {
		v := valProj(t)
		if i, fresh := seen.Add(keyProj(t)); fresh {
			image = append(image, v)
		} else if !image[i].Equal(v) {
			holds = false
		}
		return holds
	})
	return holds, nil
}

// Closure computes the closure of attrs under the FDs (the standard
// fixpoint algorithm).
func Closure(attrs relation.Scheme, fds []FD) relation.Scheme {
	closure := attrs
	for {
		grew := false
		for _, fd := range fds {
			if closure.ContainsAll(fd.From) && !closure.ContainsAll(fd.To) {
				closure = closure.Union(fd.To)
				grew = true
			}
		}
		if !grew {
			return closure
		}
	}
}

// Implies reports whether the FDs imply From → To (via closure).
func Implies(fds []FD, candidate FD) bool {
	return Closure(candidate.From, fds).ContainsAll(candidate.To)
}

// LosslessSplit reports whether decomposing a relation over scheme into
// s1 and s2 is lossless-join under the FDs — the classical binary test:
// (s1 ∩ s2) → s1 or (s1 ∩ s2) → s2 must be implied.
func LosslessSplit(scheme relation.Scheme, fds []FD, s1, s2 relation.Scheme) (bool, error) {
	if !scheme.ContainsAll(s1) || !scheme.ContainsAll(s2) {
		return false, fmt.Errorf("deps: decomposition schemes must be within %v", scheme)
	}
	if !s1.Union(s2).Equal(scheme) {
		return false, fmt.Errorf("deps: decomposition %v, %v does not cover %v", s1, s2, scheme)
	}
	shared := s1.Intersect(s2)
	cl := Closure(shared, fds)
	return cl.ContainsAll(s1) || cl.ContainsAll(s2), nil
}

// JD is a join dependency ∗[Y₁, …, Y_k]: the relation must equal the join
// of its projections onto the components.
type JD struct {
	Components []relation.Scheme
}

// String renders the JD as "*[A B, B C]".
func (jd JD) String() string {
	parts := make([]string, len(jd.Components))
	for i, c := range jd.Components {
		parts[i] = c.String()
	}
	return "*[" + strings.Join(parts, ", ") + "]"
}

// Validate checks that the components cover the scheme exactly.
func (jd JD) Validate(scheme relation.Scheme) error {
	if len(jd.Components) == 0 {
		return fmt.Errorf("deps: JD with no components")
	}
	cover := jd.Components[0]
	for _, c := range jd.Components[1:] {
		cover = cover.Union(c)
	}
	for _, c := range jd.Components {
		if !scheme.ContainsAll(c) {
			return fmt.Errorf("deps: JD component %v not within %v", c, scheme)
		}
	}
	if !cover.Equal(scheme) {
		return fmt.Errorf("deps: JD %v does not cover scheme %v", jd, scheme)
	}
	return nil
}

// Hypergraph returns the JD's scheme hypergraph.
func (jd JD) Hypergraph() Hypergraph {
	return Hypergraph{Edges: append([]relation.Scheme(nil), jd.Components...)}
}

// projector builds a fast projection closure from src onto onto.
func projector(src, onto relation.Scheme) (func(relation.Tuple) relation.Tuple, error) {
	pos := make([]int, onto.Len())
	for i := 0; i < onto.Len(); i++ {
		p, ok := src.Pos(onto.Attr(i))
		if !ok {
			return nil, fmt.Errorf("deps: attribute %q not in scheme %v", onto.Attr(i), src)
		}
		pos[i] = p
	}
	return func(t relation.Tuple) relation.Tuple {
		out := make(relation.Tuple, len(pos))
		for i, p := range pos {
			out[i] = t[p]
		}
		return out
	}, nil
}

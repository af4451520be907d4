package decide

import (
	"relquery/internal/algebra"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// The materializing entry points below are the decide layer's bridge to
// the algebra engine. Unlike the streaming procedures in this package
// (whose space stays polynomial), these compute φ(db) by actually
// joining, so they inherit the paper's exponential intermediate blow-up
// — but they are the routes that benefit from algebra.EvalOptions: the
// output-bounded join strategies and subexpression caching.

// MaterializeJoin computes φ(db) with the materializing algebra engine
// configured by opts; the zero EvalOptions is the default engine (hash
// joins, greedy order, no cache).
func MaterializeJoin(phi algebra.Expr, db relation.Database, opts algebra.EvalOptions) (*relation.Relation, error) {
	return opts.NewEvaluator().Eval(phi, db)
}

// MaterializeJoinTraced is MaterializeJoin under a fresh obs.Collector:
// it returns the result together with the evaluation's trace (span tree
// plus metrics). The trace is returned even when evaluation fails — a
// budget abort's partial spans show which join node blew up. Any
// Collector already set in opts is superseded for this call.
func MaterializeJoinTraced(phi algebra.Expr, db relation.Database, opts algebra.EvalOptions) (*relation.Relation, *obs.Trace, error) {
	col := &obs.Collector{}
	opts.Collector = col
	r, err := opts.NewEvaluator().Eval(phi, db)
	return r, col.Trace(), err
}

// CountMaterializedWith computes |φ(db)| by materializing with the
// algebra engine configured by opts.
func CountMaterializedWith(phi algebra.Expr, db relation.Database, opts algebra.EvalOptions) (int, error) {
	r, err := MaterializeJoin(phi, db, opts)
	if err != nil {
		return 0, err
	}
	return r.Len(), nil
}

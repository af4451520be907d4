// Package relquery is a faithful, executable reproduction of
//
//	Stavros S. Cosmadakis, "The Complexity of Evaluating Relational
//	Queries", Information and Control 58, 101–112 (1983).
//
// It packages a relational-algebra engine for project–join queries
// (relations, expressions, parsing, three join algorithms, streaming
// evaluation, tableaux), the propositional substrate (3CNF, DPLL, #SAT,
// ∀∃-QBF), the paper's gadget constructions (R_G, φ_G and their
// Theorem 1–5 variants), and decision procedures for every problem whose
// complexity the paper pins down: result verification (Dᵖ), cardinality
// bounds (Dᵖ/NP/co-NP), result counting (#P), and query or relation
// comparison over fixed inputs (Π₂ᵖ).
//
// This root package is the stable facade: it re-exports the library's
// types and entry points so that downstream users never import internal
// packages. Examples live under examples/, command-line tools under cmd/,
// and the experiment suite reproducing the paper's results is
// RunExperiments (also available as cmd/experiments).
package relquery

import (
	"io"

	"relquery/internal/algebra"
	"relquery/internal/cnf"
	"relquery/internal/core"
	"relquery/internal/decide"
	"relquery/internal/deps"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/qbf"
	"relquery/internal/reduction"
	"relquery/internal/relation"
	"relquery/internal/sat"
	"relquery/internal/tableau"
)

// Relational model (see internal/relation).
type (
	// Attribute names a column of a relation.
	Attribute = relation.Attribute
	// Value is an uninterpreted attribute value.
	Value = relation.Value
	// Scheme is an ordered set of distinct attributes.
	Scheme = relation.Scheme
	// Tuple is a positional row of values.
	Tuple = relation.Tuple
	// NamedTuple pairs a tuple with the scheme naming its columns.
	NamedTuple = relation.NamedTuple
	// Relation is a finite set of tuples over a scheme.
	Relation = relation.Relation
	// Database maps relation names to relations.
	Database = relation.Database
	// RenderOptions controls table rendering.
	RenderOptions = relation.RenderOptions
)

var (
	// NewScheme builds a scheme from attributes, rejecting duplicates.
	NewScheme = relation.NewScheme
	// MustScheme is NewScheme that panics on error.
	MustScheme = relation.MustScheme
	// SchemeOf parses a whitespace-separated attribute list.
	SchemeOf = relation.SchemeOf
	// NewRelation returns an empty relation over the scheme.
	NewRelation = relation.New
	// FromRows builds a relation from string rows.
	FromRows = relation.FromRows
	// TupleOf builds a tuple from strings.
	TupleOf = relation.TupleOf
	// NewDatabase returns an empty database.
	NewDatabase = relation.NewDatabase
	// SingleRelation builds a one-relation database.
	SingleRelation = relation.Single
	// ReadDatabase parses the text format's relation blocks.
	ReadDatabase = relation.ReadDatabase
	// ReadRelation parses one relation (block or bare form).
	ReadRelation = relation.ReadRelation
	// WriteRelation writes a relation block.
	WriteRelation = relation.WriteRelation
	// WriteDatabase writes every relation in name order.
	WriteDatabase = relation.WriteDatabase
	// Render formats a relation as an aligned text table.
	Render = relation.Render
	// RenderSorted renders with deterministic row order.
	RenderSorted = relation.RenderSorted
)

// Project–join expressions (see internal/algebra).
type (
	// Expr is a project–join relational expression.
	Expr = algebra.Expr
	// Operand references a named database relation.
	Operand = algebra.Operand
	// Project is the projection operator π.
	Project = algebra.Project
	// Join is the natural-join operator ∗.
	Join = algebra.Join
	// Evaluator materializes expressions with pluggable join strategy.
	Evaluator = algebra.Evaluator
)

// Observability (see internal/obs).
type (
	// Collector gathers an evaluation's span tree and metrics; attach one
	// to an Evaluator to trace it.
	Collector = obs.Collector
	// TraceSpan is one operator's trace record.
	TraceSpan = obs.Span
	// Trace is a finished evaluation's span tree plus metrics snapshot;
	// Trace.WriteJSON emits the cmd/relquery -trace format.
	Trace = obs.Trace
	// EvalMetrics is the per-evaluation counter set.
	EvalMetrics = obs.Metrics
	// EvalMetricsSnapshot is a plain-value copy of EvalMetrics.
	EvalMetricsSnapshot = obs.MetricsSnapshot
)

var (
	// NewOperand builds an operand reference.
	NewOperand = algebra.NewOperand
	// NewProject builds π_onto(of), validating attributes.
	NewProject = algebra.NewProject
	// NewJoin builds an n-ary natural join (n ≥ 2).
	NewJoin = algebra.NewJoin
	// JoinAll joins expressions, passing single arguments through.
	JoinAll = algebra.JoinAll
	// ParseExpr parses the text syntax, e.g. "pi[A B](T) * pi[B C](T)".
	ParseExpr = algebra.Parse
	// ParseExprForDatabase parses with operand schemes from a database.
	ParseExprForDatabase = algebra.ParseForDatabase
	// Eval materializes e(db) with default settings.
	Eval = algebra.Eval
	// Explain renders an expression's operator tree with actual node
	// cardinalities (it re-evaluates every subtree).
	Explain = algebra.Explain
	// ExplainAnalyze evaluates once under a tracing collector and renders
	// the executed tree annotated with observed cardinalities, wall time,
	// join algorithm, cache status and AGM size bounds.
	ExplainAnalyze = algebra.ExplainAnalyze
	// RenderTrace renders a collected Trace in the ExplainAnalyze format.
	RenderTrace = algebra.RenderTrace
	// AGMBound computes the Atserias–Grohe–Marx worst-case output-size
	// bound for a natural join of the given relations.
	AGMBound = join.AGMBoundOf
)

// Tableaux (see internal/tableau).
type (
	// Tableau is the Aho–Sagiv–Ullman tableau of an expression.
	Tableau = tableau.Tableau
)

var (
	// NewTableau builds the tableau of an expression; Tableau.ContainedIn
	// is Chandra–Merlin all-databases containment. Evaluating a query —
	// Member, the paper's Proposition 2 NP membership test, among them —
	// is the evaluator's.
	NewTableau = tableau.New
)

// Propositional logic (see internal/cnf, internal/sat, internal/qbf).
type (
	// Lit is a CNF literal (±variable).
	Lit = cnf.Lit
	// Clause is a disjunction of literals.
	Clause = cnf.Clause
	// Formula is a CNF formula.
	Formula = cnf.Formula
	// Assignment is a truth assignment.
	Assignment = cnf.Assignment
	// QBFInstance is a ∀X ∃X′ G sentence.
	QBFInstance = qbf.Instance
)

var (
	// NewFormula builds a validated formula.
	NewFormula = cnf.New
	// ParseCNF parses "(x1 + ~x2 + x3)(...)" syntax.
	ParseCNF = cnf.Parse
	// ParseDIMACS parses DIMACS CNF.
	ParseDIMACS = cnf.ParseDIMACS
	// WriteDIMACS writes DIMACS CNF.
	WriteDIMACS = cnf.WriteDIMACS
	// To3CNF converts arbitrary CNF to equisatisfiable 3CNF.
	To3CNF = cnf.To3CNF
	// CompactCNF renumbers away variables that occur in no clause.
	CompactCNF = cnf.Compact
	// PaperExample returns the formula of the paper's worked example.
	PaperExample = cnf.PaperExample
	// Pigeonhole returns the PHP(n) unsatisfiable family in 3CNF.
	Pigeonhole = cnf.Pigeonhole
	// XorChain returns the parity-chain family in 3CNF.
	XorChain = cnf.XorChain
	// Satisfiable decides satisfiability with DPLL.
	Satisfiable = sat.Satisfiable
	// Solvers (sat.Solver implementations): recursive DPLL with unit
	// propagation and pure literals, iterative two-watched-literal DPLL,
	// and the brute-force reference.
	DPLLSolver    = sat.DPLL{}
	WatchedSolver = sat.WatchedDPLL{}
	BruteSolver   = sat.BruteForce{}
	// CountModels counts satisfying assignments (#SAT).
	CountModels = sat.CountModels
	// EnumerateModels visits every satisfying assignment.
	EnumerateModels = sat.Enumerate
	// SolveQBF decides ∀X ∃X′ G exhaustively.
	SolveQBF = qbf.Solve
)

// The paper's constructions (see internal/reduction).
type (
	// Construction is the gadget R_G (or a Theorem 4/5 variant) with its
	// attribute bookkeeping and expression builders.
	Construction = reduction.Construction
	// Theorem1Instance is the Dᵖ result-verification reduction.
	Theorem1Instance = reduction.Theorem1Instance
	// Theorem2Instance is the Dᵖ cardinality-window reduction.
	Theorem2Instance = reduction.Theorem2Instance
	// Theorem4Instance is the Π₂ᵖ fixed-relation reduction.
	Theorem4Instance = reduction.Theorem4Instance
	// Theorem5Instance is the Π₂ᵖ fixed-query reduction.
	Theorem5Instance = reduction.Theorem5Instance
)

var (
	// NewConstruction builds R_G and its bookkeeping for a formula in
	// reduction form.
	NewConstruction = reduction.New
	// Theorem1 builds the φ(R) = r instance for a formula pair.
	Theorem1 = reduction.Theorem1
	// Theorem2 builds the cardinality-window instance.
	Theorem2 = reduction.Theorem2
	// Theorem4 builds the fixed-relation comparison instance.
	Theorem4 = reduction.Theorem4
	// Theorem5 builds the fixed-query comparison instance.
	Theorem5 = reduction.Theorem5
	// PrepareQ3SAT applies Proposition 4 preprocessing.
	PrepareQ3SAT = reduction.PrepareQ3SAT
)

// Decision procedures (see internal/decide).
type (
	// DecisionBudget caps a decision procedure's streaming work.
	DecisionBudget = decide.Budget
	// Comparison reports a comparison outcome with a failure witness.
	Comparison = decide.Comparison
)

var (
	// Member tests t ∈ φ(db) — NP (Proposition 2).
	Member = decide.Member
	// ResultEquals tests φ(db) = r — Dᵖ (Theorem 1).
	ResultEquals = decide.ResultEquals
	// CardAtLeast tests d ≤ |φ(db)| — NP (Theorem 2).
	CardAtLeast = decide.CardAtLeast
	// CardAtMost tests |φ(db)| ≤ d — co-NP (Theorem 2).
	CardAtMost = decide.CardAtMost
	// CardBetween tests d₁ ≤ |φ(db)| ≤ d₂ — Dᵖ (Theorem 2).
	CardBetween = decide.CardBetween
	// CountResult computes |φ(db)| — #P-hard (Theorem 3).
	CountResult = decide.Count
	// EnumerateResult streams the distinct tuples of φ(db) lazily.
	EnumerateResult = decide.Enumerate
	// FirstResults returns up to n distinct tuples of φ(db).
	FirstResults = decide.First
	// ContainedFixedRelation tests φ₁(db) ⊆ φ₂(db) — Π₂ᵖ (Theorem 4).
	ContainedFixedRelation = decide.ContainedFixedRelation
	// EquivalentFixedRelation tests φ₁(db) = φ₂(db) — Π₂ᵖ (Theorem 4).
	EquivalentFixedRelation = decide.EquivalentFixedRelation
	// ContainedFixedQuery tests φ(db₁) ⊆ φ(db₂) — Π₂ᵖ (Theorem 5).
	ContainedFixedQuery = decide.ContainedFixedQuery
	// EquivalentFixedQuery tests φ(db₁) = φ(db₂) — Π₂ᵖ (Theorem 5).
	EquivalentFixedQuery = decide.EquivalentFixedQuery
)

// The complexity atlas (see internal/core): decide logic problems through
// the query reductions.
var (
	// SATViaMembership decides SAT via u_G ∈ π_Y(φ_G(R_G)).
	SATViaMembership = core.SATViaMembership
	// UNSATViaFixpoint decides UNSAT via φ_G(R_G) = R_G.
	UNSATViaFixpoint = core.UNSATViaFixpoint
	// SATAndUNSATViaResultEquals decides 3SAT-3UNSAT via Theorem 1.
	SATAndUNSATViaResultEquals = core.SATAndUNSATViaResultEquals
	// SATAndUNSATViaCardinality decides 3SAT-3UNSAT via Theorem 2.
	SATAndUNSATViaCardinality = core.SATAndUNSATViaCardinality
	// CountModelsViaQuery counts models via Theorem 3.
	CountModelsViaQuery = core.CountModelsViaQuery
	// Q3SATViaQueryComparison decides ∀∃ via Theorem 4.
	Q3SATViaQueryComparison = core.Q3SATViaQueryComparison
	// Q3SATViaRelationComparison decides ∀∃ via Theorem 5.
	Q3SATViaRelationComparison = core.Q3SATViaRelationComparison
	// VerifyLemma1 checks Lemma 1 on a formula.
	VerifyLemma1 = core.VerifyLemma1
)

// Dependency theory (see internal/deps).
type (
	// FD is a functional dependency From → To.
	FD = deps.FD
	// JD is a join dependency ∗[Y₁, …, Y_k]; JD.HoldsIn is the paper's
	// co-NP-complete fixpoint test ∗π_{Y_i}(R) = R.
	JD = deps.JD
	// Hypergraph is a join query's scheme hypergraph (GYO acyclicity).
	Hypergraph = deps.Hypergraph
)

var (
	// FDClosure computes attribute-set closure under FDs.
	FDClosure = deps.Closure
	// ChaseFDs chases a tableau with FDs (Aho–Sagiv–Ullman).
	ChaseFDs = deps.ChaseFDs
	// ContainedUnderFDs decides query containment under FDs via the chase.
	ContainedUnderFDs = deps.ContainedUnderFDs
	// EquivalentUnderFDs decides query equivalence under FDs.
	EquivalentUnderFDs = deps.EquivalentUnderFDs
	// LosslessJoin decides lossless decomposition via the chase.
	LosslessJoin = deps.LosslessJoin
	// AcyclicJoin evaluates an acyclic join with Yannakakis' algorithm.
	AcyclicJoin = deps.AcyclicJoin
	// FullReduce runs the Yannakakis full reducer (semijoin sweeps).
	FullReduce = deps.FullReduce
	// Semijoin computes r ⋉ s.
	Semijoin = deps.Semijoin
	// PairwiseConsistent tests pairwise database consistency.
	PairwiseConsistent = deps.PairwiseConsistent
	// Consistent tests for a universal instance (Honeyman–Ladner–
	// Yannakakis).
	Consistent = deps.Consistent
	// UniversalInstanceOf returns a universal-relation witness when one
	// exists.
	UniversalInstanceOf = deps.UniversalInstance
)

// ExperimentConfig parameterizes the experiment suite.
type ExperimentConfig = core.Config

// RunExperiments executes the EXPERIMENTS.md suite (all experiments when
// ids is empty), writing tables to out.
func RunExperiments(ids []string, out io.Writer, seed int64, quick bool) error {
	return core.Run(ids, &core.Config{Out: out, Seed: seed, Quick: quick})
}

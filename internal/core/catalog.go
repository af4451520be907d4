package core

// Problem describes one decision or enumeration problem whose complexity
// the paper settles, together with where its pieces live in this library.
type Problem struct {
	// Name is a short identifier, e.g. "result-verification".
	Name string
	// Statement is the problem in one sentence.
	Statement string
	// Class is the exact complexity class, e.g. "Dᵖ-complete".
	Class string
	// PaperRef cites the theorem/proposition establishing the class.
	PaperRef string
	// Procedure names the decision procedure implementing it.
	Procedure string
	// Reduction names the construction proving hardness.
	Reduction string
}

// Catalog returns the paper's complexity results in presentation order —
// the machine-readable version of DESIGN.md's results table.
func Catalog() []Problem {
	return []Problem{
		{
			Name:      "membership",
			Statement: "given R, project-join φ and tuple t, is t ∈ φ(R)?",
			Class:     "NP-complete",
			PaperRef:  "Proposition 2 + Proposition 1 (hardness after Yannakakis 1981)",
			Procedure: "decide.Member (witness search of the generic join)",
			Reduction: "u_G ∈ π_Y(φ_G(R_G)) ⇔ G satisfiable",
		},
		{
			Name:      "fixpoint",
			Statement: "given R and schemes Y_i, is ∗π_{Y_i}(R) = R (a join dependency)?",
			Class:     "co-NP-complete",
			PaperRef:  "after Lemma 1 (hardness after Maier-Sagiv-Yannakakis 1981)",
			Procedure: "deps.JD.HoldsIn / decide.ResultEquals",
			Reduction: "φ_G(R_G) = R_G ⇔ G unsatisfiable",
		},
		{
			Name:      "result-verification",
			Statement: "given R, φ and conjectured r, is φ(R) = r?",
			Class:     "Dᵖ-complete",
			PaperRef:  "Theorem 1",
			Procedure: "decide.ResultEquals",
			Reduction: "reduction.Theorem1 (product gadget R_G ∗ R_{G'})",
		},
		{
			Name:      "cardinality-window",
			Statement: "given R, φ and unary d₁ ≤ d₂, is d₁ ≤ |φ(R)| ≤ d₂?",
			Class:     "Dᵖ-complete (≥ d₁ NP-complete; ≤ d₂ co-NP-complete)",
			PaperRef:  "Theorem 2",
			Procedure: "decide.CardBetween / CardAtLeast / CardAtMost",
			Reduction: "reduction.Theorem2 (β/β' window)",
		},
		{
			Name:      "result-counting",
			Statement: "given R and φ, how many tuples does φ(R) have?",
			Class:     "#P-hard (#P-complete for ∗π_{Y_i}(R))",
			PaperRef:  "Theorem 3 + Corollary",
			Procedure: "decide.Count",
			Reduction: "a(G) = |φ_G(R_G)| − 7m − 1",
		},
		{
			Name:      "query-comparison",
			Statement: "given R and φ₁, φ₂, is φ₁(R) ⊆ φ₂(R)? is φ₁(R) = φ₂(R)?",
			Class:     "Π₂ᵖ-complete",
			PaperRef:  "Theorem 4",
			Procedure: "decide.ContainedFixedRelation / EquivalentFixedRelation",
			Reduction: "reduction.Theorem4 (R'_G with falsifier rows and U column)",
		},
		{
			Name:      "relation-comparison",
			Statement: "given R₁, R₂ and φ, is φ(R₁) ⊆ φ(R₂)? is φ(R₁) = φ(R₂)?",
			Class:     "Π₂ᵖ-complete",
			PaperRef:  "Theorem 5",
			Procedure: "decide.ContainedFixedQuery / EquivalentFixedQuery",
			Reduction: "reduction.Theorem5 (R''_G vs R_G under π_X(φ_G))",
		},
	}
}

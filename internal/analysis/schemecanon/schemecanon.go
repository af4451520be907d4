// Package schemecanon flags construction or mutation of relation.Scheme
// values that bypasses the canonicalizing constructor NewScheme (and its
// wrappers MustScheme/SchemeOf).
//
// Invariant guarded: a Scheme is an ordered sequence of *distinct,
// non-empty* attributes with a position index — the attributes'
// positions sorted by name, which Pos binary-searches — kept consistent
// with the attribute list. Everything downstream leans on that: the AGM bound's
// fractional cover treats each attribute as one LP dimension (a
// duplicate would double-count and break the wcoj-vs-greedy peak
// comparison), the generic join's trie ordering assumes Pos is a
// bijection, and projection arithmetic indexes tuples by Pos. A scheme
// literal — or a write to Scheme.attrs/Scheme.index outside NewScheme —
// can violate any of these silently; only NewScheme validates.
package schemecanon

import (
	"go/ast"
	"go/types"

	"relquery/internal/analysis/framework"
)

// Analyzer is the schemecanon pass.
var Analyzer = &framework.Analyzer{
	Name: "schemecanon",
	Doc: "flags relation.Scheme values built or mutated outside the " +
		"canonicalizing constructor NewScheme (use NewScheme/MustScheme/SchemeOf)",
	Run: run,
}

func isScheme(t types.Type) bool {
	return framework.IsNamed(t, "relation", "Scheme")
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		framework.WalkStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch v := n.(type) {
			case *ast.CompositeLit:
				checkLiteral(pass, v, stack)
			case *ast.AssignStmt:
				checkFieldWrite(pass, v, stack)
			}
			return true
		})
	}
	return nil
}

// inConstructor reports whether the node sits inside NewScheme — the one
// function allowed to assemble a Scheme by hand.
func inConstructor(stack []ast.Node) bool {
	for _, n := range stack {
		if fd, ok := n.(*ast.FuncDecl); ok {
			return fd.Name.Name == "NewScheme"
		}
	}
	return false
}

// checkLiteral flags non-empty Scheme composite literals. The zero
// literal Scheme{} is the documented empty scheme and stays legal.
func checkLiteral(pass *framework.Pass, cl *ast.CompositeLit, stack []ast.Node) {
	if len(cl.Elts) == 0 || !isScheme(pass.Info.TypeOf(cl)) || inConstructor(stack) {
		return
	}
	pass.Reportf(cl.Pos(),
		"Scheme built ad hoc: construct schemes with NewScheme/MustScheme/SchemeOf so duplicate and empty attributes are rejected and the position index stays consistent with the attributes")
}

// checkFieldWrite flags writes to Scheme fields (s.attrs = ...,
// s.index[k] = ...) outside NewScheme.
func checkFieldWrite(pass *framework.Pass, st *ast.AssignStmt, stack []ast.Node) {
	if inConstructor(stack) {
		return
	}
	for _, lhs := range st.Lhs {
		se := schemeFieldSelector(pass, lhs)
		if se == nil {
			continue
		}
		pass.Reportf(lhs.Pos(),
			"write to Scheme.%s outside NewScheme breaks scheme canonicalization; build a new Scheme with NewScheme/MustScheme instead",
			se.Sel.Name)
	}
}

// schemeFieldSelector unwraps an assignment target down to a selector on
// a Scheme field: s.attrs, s.index[k], s.attrs[i].
func schemeFieldSelector(pass *framework.Pass, e ast.Expr) *ast.SelectorExpr {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = v.X
		case *ast.SelectorExpr:
			if sel, ok := pass.Info.Selections[v]; ok && sel.Kind() == types.FieldVal && isScheme(sel.Recv()) {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

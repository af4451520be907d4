// Package tuplealias flags writes into relation.Tuple values (and row
// slices) that a function received across a package boundary.
//
// Invariant guarded: a Tuple handed out by package relation — via
// Relation.Tuple, Tuples, Each callbacks, or any exported signature — is
// shared, not owned. The subexpression cache returns the *same* relation
// to every consumer, and relqueryd's concurrent requests read one catalog
// relation at once; one in-place write through an aliased tuple
// silently corrupts every other reader (and, because Relation's dedup
// index hashes tuple contents, the owning relation's set semantics too).
// That breaks the Lemma 1 parity tests in the worst way: results change
// only under caching or concurrent requests. Mutating code must Clone first.
package tuplealias

import (
	"go/ast"
	"go/types"

	"relquery/internal/analysis/framework"
)

// Analyzer is the tuplealias pass.
var Analyzer = &framework.Analyzer{
	Name: "tuplealias",
	Doc: "flags writes into relation.Tuple values or row slices received " +
		"across a package boundary; shared tuples are immutable — Clone before mutating",
	Run: run,
}

// Ownership classes, in increasing order of concern. Classification is
// flow-sensitive in syntactic order: a re-assignment like t = t.Clone()
// downgrades t to owned for the statements after it.
const (
	unknown = iota
	owned
	// foreignCall: obtained from another package's function or read from
	// shared storage (struct field, package variable). The tuples inside
	// are shared; the slice header may be a defensive copy, so only
	// element-level writes are flagged.
	foreignCall
	// foreignParam: received as a parameter — both the tuples and the
	// slice itself belong to the caller.
	foreignParam
)

func run(pass *framework.Pass) error {
	if pass.Pkg.Name() == "relation" {
		// The defining package manages tuple ownership itself (its
		// constructors are exactly where fresh tuples come from).
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				check(pass, fd)
			}
		}
	}
	return nil
}

// isTuple reports whether t is relation.Tuple (behind aliases/pointers).
func isTuple(t types.Type) bool {
	return framework.IsNamed(t, "relation", "Tuple")
}

// isRowSlice reports whether t is a []relation.Tuple.
func isRowSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	return ok && isTuple(s.Elem())
}

func tracked(t types.Type) bool {
	return t != nil && (isTuple(t) || isRowSlice(t))
}

type checker struct {
	pass  *framework.Pass
	class map[*types.Var]int
}

// check walks one function (closures included) in syntactic order,
// updating ownership on assignments and reporting violations as they
// appear.
func check(pass *framework.Pass, fd *ast.FuncDecl) {
	c := &checker{pass: pass, class: make(map[*types.Var]int)}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncDecl:
			// Only exported functions receive values across the package
			// boundary; an unexported builder initialising a tuple its
			// same-package caller just allocated is legitimate.
			if v.Name.IsExported() {
				c.seedParams(v.Type)
			}
		case *ast.FuncLit:
			// Closure parameters are foreign too: relation.Each hands its
			// callback borrowed tuples.
			c.seedParams(v.Type)
		case *ast.AssignStmt:
			c.assign(v)
		case *ast.RangeStmt:
			c.rangeStmt(v)
		case *ast.ValueSpec:
			c.valueSpec(v)
		case *ast.CallExpr:
			c.call(v)
		}
		return true
	})
}

func (c *checker) seedParams(ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if obj, ok := c.pass.Info.Defs[name].(*types.Var); ok && tracked(obj.Type()) {
				c.class[obj] = foreignParam
			}
		}
	}
}

func (c *checker) setClass(id *ast.Ident, cls int) {
	obj, ok := c.pass.Info.Defs[id].(*types.Var)
	if !ok {
		obj, ok = c.pass.Info.Uses[id].(*types.Var)
	}
	if ok && tracked(obj.Type()) {
		c.class[obj] = cls
	}
}

// assign reports violations on the left-hand sides, then updates
// ownership classes from the right-hand sides.
func (c *checker) assign(st *ast.AssignStmt) {
	for _, lhs := range st.Lhs {
		c.checkWrite(lhs)
	}
	// Retention: storing a foreign tuple into longer-lived storage
	// (struct field or package-level variable) keeps the alias alive
	// after the call returns.
	for i, lhs := range st.Lhs {
		if i < len(st.Rhs) {
			c.checkRetention(lhs, st.Rhs[i])
		}
	}
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		cls := c.classOf(st.Rhs[0])
		for _, lhs := range st.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				c.setClass(id, cls)
			}
		}
		return
	}
	for i, lhs := range st.Lhs {
		if i >= len(st.Rhs) {
			break
		}
		if id, ok := lhs.(*ast.Ident); ok {
			c.setClass(id, c.classOf(st.Rhs[i]))
		}
	}
}

func (c *checker) rangeStmt(st *ast.RangeStmt) {
	if st.Value == nil {
		return
	}
	if id, ok := st.Value.(*ast.Ident); ok {
		if cls := c.classOf(st.X); cls >= foreignCall {
			c.setClass(id, cls)
		}
	}
}

func (c *checker) valueSpec(vs *ast.ValueSpec) {
	for i, name := range vs.Names {
		if i < len(vs.Values) {
			c.setClass(name, c.classOf(vs.Values[i]))
		}
	}
}

// checkWrite flags an element write through a foreign tuple or row
// slice appearing as an assignment target.
func (c *checker) checkWrite(lhs ast.Expr) {
	ie, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return
	}
	baseType := c.pass.Info.TypeOf(ie.X)
	switch {
	case isTuple(baseType):
		if c.classOf(ie.X) >= foreignCall {
			c.pass.Reportf(lhs.Pos(),
				"writes into a relation.Tuple received across a package boundary; tuples are shared — Clone before mutating")
		}
	case isRowSlice(baseType):
		if c.classOf(ie.X) == foreignParam {
			c.pass.Reportf(lhs.Pos(),
				"writes into a row slice received across a package boundary; copy the slice before mutating")
		}
	}
}

func (c *checker) checkRetention(lhs, rhs ast.Expr) {
	id, ok := rhs.(*ast.Ident)
	if !ok || !tracked(c.pass.Info.TypeOf(id)) || c.classOf(id) < foreignCall {
		return
	}
	switch target := lhs.(type) {
	case *ast.SelectorExpr:
		if sel, ok := c.pass.Info.Selections[target]; ok && sel.Kind() == types.FieldVal {
			c.pass.Reportf(lhs.Pos(),
				"retains a borrowed relation.Tuple in a struct field; Clone it so later mutations cannot corrupt the owner")
		}
	case *ast.Ident:
		if obj, ok := c.pass.Info.Uses[target].(*types.Var); ok && obj.Parent() == c.pass.Pkg.Scope() {
			c.pass.Reportf(lhs.Pos(),
				"retains a borrowed relation.Tuple in a package-level variable; Clone it first")
		}
	}
}

// call flags the mutating builtins applied to foreign tuples.
func (c *checker) call(call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return
	}
	switch id.Name {
	case "copy":
		if isTuple(c.pass.Info.TypeOf(call.Args[0])) && c.classOf(call.Args[0]) >= foreignCall {
			c.pass.Reportf(call.Pos(),
				"copy into a relation.Tuple received across a package boundary overwrites shared data; Clone instead")
		}
	case "append":
		if isTuple(c.pass.Info.TypeOf(call.Args[0])) && c.classOf(call.Args[0]) >= foreignCall {
			c.pass.Reportf(call.Pos(),
				"append to a relation.Tuple received across a package boundary may write its shared backing array; Clone first")
		}
	}
}

// classOf computes the ownership class of an expression under the
// current classification.
func (c *checker) classOf(e ast.Expr) int {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj, ok := c.pass.Info.Uses[v].(*types.Var); ok {
			return c.class[obj]
		}
	case *ast.IndexExpr:
		// An element of a foreign slice is a foreign tuple regardless of
		// how the slice header itself is owned.
		if cls := c.classOf(v.X); cls >= foreignCall {
			return cls
		}
	case *ast.SliceExpr:
		return c.classOf(v.X)
	case *ast.SelectorExpr:
		if sel, ok := c.pass.Info.Selections[v]; ok && sel.Kind() == types.FieldVal {
			return foreignCall
		}
		if obj, ok := c.pass.Info.Uses[v.Sel].(*types.Var); ok && obj.Pkg() != nil && obj.Pkg() != c.pass.Pkg {
			return foreignCall
		}
	case *ast.CallExpr:
		return c.classOfCall(v)
	case *ast.CompositeLit:
		return owned
	}
	return unknown
}

func (c *checker) classOfCall(call *ast.CallExpr) int {
	if tv, ok := c.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: ownership follows the operand.
		if len(call.Args) == 1 {
			return c.classOf(call.Args[0])
		}
		return owned
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make", "new":
			return owned
		case "append":
			if len(call.Args) > 0 {
				return c.classOf(call.Args[0])
			}
			return owned
		}
		if obj := c.pass.Info.Uses[fun]; obj != nil && obj.Pkg() != nil && obj.Pkg() != c.pass.Pkg {
			return foreignCall
		}
		return owned
	case *ast.SelectorExpr:
		// Clone (on anything) yields an owned value; that is the whole
		// point of the convention.
		if fun.Sel.Name == "Clone" {
			return owned
		}
		if obj := c.pass.Info.Uses[fun.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg() != c.pass.Pkg {
			return foreignCall
		}
		return owned
	}
	return foreignCall
}

// Package atomicobs flags non-atomic access to struct fields of
// sync/atomic types.
//
// Invariant guarded: obs.Metrics is written by a running evaluation while
// /metrics and the registry snapshot it from other goroutines, and its
// race-freedom rests entirely on each field being touched only through
// its atomic methods
// (Add/Load/CompareAndSwap/...). Copying such a field, assigning to it,
// or comparing it reads or writes the value non-atomically: the racy
// read may tear, and — worse — a copied counter silently forks the
// metric, which is exactly the mutex-plus-exported-fields bug class
// obs.Metrics was introduced to end. The check applies to any struct in the module with atomic-typed fields,
// so future metric sets inherit the rule.
package atomicobs

import (
	"go/ast"
	"go/types"

	"relquery/internal/analysis/framework"
)

// Analyzer is the atomicobs pass.
var Analyzer = &framework.Analyzer{
	Name: "atomicobs",
	Doc: "flags reads or writes of sync/atomic-typed struct fields outside " +
		"their atomic methods; counters shared across goroutines must never be " +
		"copied, assigned or compared directly",
	Run: run,
}

// atomicTypeNames are the sync/atomic wrapper types whose fields the
// pass protects.
var atomicTypeNames = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true,
	"Uint64": true, "Uintptr": true, "Pointer": true, "Value": true,
}

func isAtomicType(t types.Type) bool {
	named := framework.NamedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync/atomic" && atomicTypeNames[named.Obj().Name()]
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		framework.WalkStack(file, func(n ast.Node, stack []ast.Node) bool {
			se, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			sel, ok := pass.Info.Selections[se]
			if !ok || sel.Kind() != types.FieldVal || !isAtomicType(sel.Obj().Type()) {
				return true
			}
			if methodCallOn(se, stack) {
				return true
			}
			owner := "struct"
			if named := framework.NamedOf(sel.Recv()); named != nil {
				owner = named.Obj().Name()
			}
			pass.Reportf(se.Pos(),
				"non-atomic access to atomic counter field %s.%s: use its atomic methods (Add/Load/...) only",
				owner, sel.Obj().Name())
			return true
		})
	}
	return nil
}

// methodCallOn reports whether se appears as the receiver of an
// immediate method call: parent is a selector `se.M` and grandparent
// calls it.
func methodCallOn(se *ast.SelectorExpr, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	parent, ok := stack[len(stack)-1].(*ast.SelectorExpr)
	if !ok || parent.X != se {
		return false
	}
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	return ok && call.Fun == parent
}

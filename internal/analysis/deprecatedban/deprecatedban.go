// Package deprecatedban flags uses of symbols carrying a "Deprecated:"
// notice anywhere in the module.
//
// Invariant guarded: a deprecated shim stays compilable while callers
// migrate, but must not gain new callers — otherwise the shim can never
// be deleted and two half-equivalent APIs drift apart. Uses are
// allowed in exactly two places: inside the symbol's defining package
// (the shim's own implementation and tests), and inside declarations
// that are themselves deprecated (a deprecated alias may reference a
// deprecated type).
package deprecatedban

import (
	"go/ast"
	"go/types"
	"strings"

	"relquery/internal/analysis/framework"
)

// Analyzer is the deprecatedban pass.
var Analyzer = &framework.Analyzer{
	Name: "deprecatedban",
	Doc: "flags uses of // Deprecated: symbols outside their defining " +
		"package (and outside other deprecated declarations)",
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		f := file
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.Ident:
				checkObject(pass, f, v, pass.Info.Uses[v])
			case *ast.SelectorExpr:
				checkFieldSelection(pass, f, v)
			case *ast.CompositeLit:
				checkCompositeFields(pass, f, v)
			}
			return true
		})
	}
	return nil
}

// report flags one use unless it sits inside a deprecated declaration.
func report(pass *framework.Pass, file *ast.File, n ast.Node, key, msg string) {
	if framework.DeclDeprecated(file, n.Pos()) {
		return
	}
	short := strings.TrimSpace(strings.TrimPrefix(msg, "Deprecated:"))
	if i := strings.Index(short, ". "); i > 0 {
		short = short[:i+1]
	}
	pass.Reportf(n.Pos(), "use of deprecated %s: %s", key, short)
}

// foreign reports whether obj belongs to another package — uses inside
// the defining package are the shim's own implementation and tests.
func foreign(pass *framework.Pass, pkg *types.Package) bool {
	if pkg == nil || pkg == pass.Pkg {
		return false
	}
	// An external test package may exercise its own package's shim:
	// relquery_test covering relquery's deprecated alias is not a new
	// caller.
	return pass.Pkg.Path() != pkg.Path()+"_test"
}

// checkObject handles named objects: package-level symbols and methods,
// reached through plain or selector-qualified identifiers.
func checkObject(pass *framework.Pass, file *ast.File, id *ast.Ident, obj types.Object) {
	if obj == nil || !foreign(pass, obj.Pkg()) {
		return
	}
	key := framework.SymbolKey(obj)
	if key == "" {
		return
	}
	if msg, ok := pass.Deprecated.Lookup(key); ok {
		report(pass, file, id, key, msg)
	}
}

// checkFieldSelection handles struct field reads/writes (x.Field).
func checkFieldSelection(pass *framework.Pass, file *ast.File, se *ast.SelectorExpr) {
	sel, ok := pass.Info.Selections[se]
	if !ok || sel.Kind() != types.FieldVal || !foreign(pass, sel.Obj().Pkg()) {
		return
	}
	owner := framework.NamedOf(sel.Recv())
	if owner == nil {
		return
	}
	key := framework.FieldKey(owner, sel.Obj().Name())
	if msg, ok := pass.Deprecated.Lookup(key); ok {
		report(pass, file, se.Sel, key, msg)
	}
}

// checkCompositeFields handles keyed struct literals (T{Field: v}).
func checkCompositeFields(pass *framework.Pass, file *ast.File, cl *ast.CompositeLit) {
	named := framework.NamedOf(pass.Info.TypeOf(cl))
	if named == nil || !foreign(pass, named.Obj().Pkg()) {
		return
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return
	}
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		id, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		key := framework.FieldKey(named, id.Name)
		if msg, ok := pass.Deprecated.Lookup(key); ok {
			report(pass, file, id, key, msg)
		}
	}
}

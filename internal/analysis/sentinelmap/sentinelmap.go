// Package sentinelmap keeps the governor's sentinel set and the HTTP
// boundary in lockstep. The governor fails an evaluation with exactly
// one of its exported Err* sentinels, and relqueryd's contract is that
// each sentinel maps to a distinct, deliberate status code (429
// admission, 504 deadline, 413 budget, 499 cancel) — a sentinel the
// handler never mentions falls through to the generic catch-all, so
// adding ErrNewBudget to the governor silently turns a resource
// rejection into a 400 "bad query" and clients retry work that can
// never succeed. The analyzer activates in any package that imports
// both a governor package and net/http, and reports each sentinel the
// package never references.
//
// It also checks handler write ordering: a statement list that calls
// w.Write (or fmt.Fprintf(w, ...)) and then w.WriteHeader later in the
// same list sends the mapped status nowhere — net/http commits 200 on
// the first body write and logs "superfluous WriteHeader" at runtime,
// where nobody is watching.
package sentinelmap

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"relquery/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "sentinelmap",
	Doc:  "HTTP packages using the governor must map every governor.Err* sentinel and join.ErrPanic, and never WriteHeader after a body write",
	Run:  run,
}

func run(pass *framework.Pass) error {
	gov, http := importedPackages(pass.Pkg)
	if gov == nil || !http {
		return nil
	}
	files := nonTestFiles(pass)
	if mappingSite(pass, files, gov) {
		checkSentinels(pass, files, gov)
	}
	checkWriteOrder(pass)
	return nil
}

// nonTestFiles returns the pass's production files. Tests reference
// whichever sentinels they exercise; only shipped mapping code owes the
// full set.
func nonTestFiles(pass *framework.Pass) []*ast.File {
	var out []*ast.File
	for _, file := range pass.Files {
		if !strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			out = append(out, file)
		}
	}
	return out
}

// mappingSite reports whether the package contains a sentinel→status
// mapping function: a declared function with an http.ResponseWriter
// parameter whose body references a governor sentinel. Packages that
// merely configure the governor next to an HTTP server (cmd wiring)
// are not mapping sites and owe nothing.
func mappingSite(pass *framework.Pass, files []*ast.File, gov *types.Package) bool {
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasResponseWriterParam(pass, fd) {
				continue
			}
			if len(sentinelUses(pass, fd.Body, gov)) > 0 {
				return true
			}
		}
	}
	return false
}

func hasResponseWriterParam(pass *framework.Pass, fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		if framework.IsNamed(pass.Info.TypeOf(field.Type), "http", "ResponseWriter") {
			return true
		}
	}
	return false
}

// sentinelUses collects the governor Err* objects referenced under n.
func sentinelUses(pass *framework.Pass, n ast.Node, gov *types.Package) map[types.Object]bool {
	used := make(map[types.Object]bool)
	ast.Inspect(n, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.Info.Uses[id]; obj != nil && isSentinel(obj, gov) {
			used[obj] = true
		}
		return true
	})
	return used
}

func isSentinel(obj types.Object, gov *types.Package) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() == gov && v.Exported() && strings.HasPrefix(v.Name(), "Err")
}

// importedPackages finds the direct import named "governor" and whether
// net/http is imported.
func importedPackages(pkg *types.Package) (gov *types.Package, http bool) {
	for _, imp := range pkg.Imports() {
		switch {
		case imp.Name() == "governor":
			gov = imp
		case imp.Path() == "net/http":
			http = true
		}
	}
	return gov, http
}

// checkSentinels reports every exported Err* variable of gov that the
// package's production files never reference.
func checkSentinels(pass *framework.Pass, files []*ast.File, gov *types.Package) {
	used := make(map[types.Object]bool)
	for _, file := range files {
		for obj := range sentinelUses(pass, file, gov) {
			used[obj] = true
		}
	}
	var missing []string
	scope := gov.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if isSentinel(obj, gov) && !used[obj] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	pos := governorImportPos(pass, gov)
	for _, name := range missing {
		pass.Reportf(pos, "sentinel %s.%s has no HTTP status mapping in this package: every governor sentinel must map to a deliberate status", gov.Name(), name)
	}
	if !usesPanicSentinel(pass, files) {
		pass.Reportf(pos, "sentinel join.ErrPanic has no HTTP status mapping in this package: a recovered engine panic is the server's fault, not the catch-all's bad query")
	}
}

// usesPanicSentinel reports whether the production files reference
// join.ErrPanic. The join package is matched by name, as the governor is:
// a mapping site that never imports it has not mapped its sentinel.
func usesPanicSentinel(pass *framework.Pass, files []*ast.File) bool {
	found := false
	for _, file := range files {
		ast.Inspect(file, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok && id.Name == "ErrPanic" {
				if v, ok := pass.Info.Uses[id].(*types.Var); ok && v.Pkg() != nil && v.Pkg().Name() == "join" {
					found = true
				}
			}
			return !found
		})
	}
	return found
}

// governorImportPos anchors sentinel findings on the governor import
// spec — the package-level fact being violated — falling back to the
// first file.
func governorImportPos(pass *framework.Pass, gov *types.Package) token.Pos {
	want := strconv.Quote(gov.Path())
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			if imp.Path.Value == want {
				return imp.Pos()
			}
		}
	}
	return pass.Files[0].Pos()
}

// checkWriteOrder walks every statement list in the package and flags a
// direct w.WriteHeader call preceded, in the same list, by a direct
// body write on the same ResponseWriter. Only sibling statements are
// compared: writes inside earlier branches (which usually return) are
// out of scope, so the check has no false positives on exclusive paths.
func checkWriteOrder(pass *framework.Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var list []ast.Stmt
			switch x := n.(type) {
			case *ast.BlockStmt:
				list = x.List
			case *ast.CaseClause:
				list = x.Body
			case *ast.CommClause:
				list = x.Body
			default:
				return true
			}
			written := make(map[types.Object]bool)
			for _, stmt := range list {
				es, ok := stmt.(*ast.ExprStmt)
				if !ok {
					continue
				}
				call, ok := es.X.(*ast.CallExpr)
				if !ok {
					continue
				}
				if w := bodyWriteTarget(pass, call); w != nil {
					written[w] = true
				} else if w := writeHeaderTarget(pass, call); w != nil && written[w] {
					pass.Reportf(call.Pos(), "WriteHeader after a body write on %s has no effect: net/http already committed status 200 on the first write", w.Name())
				}
			}
			return true
		})
	}
}

// responseWriterObj resolves e to a variable of type
// net/http.ResponseWriter, or nil.
func responseWriterObj(pass *framework.Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.Info.Uses[id]
	if obj == nil || !framework.IsNamed(obj.Type(), "http", "ResponseWriter") {
		return nil
	}
	return obj
}

// bodyWriteTarget returns the ResponseWriter a call writes a body to:
// w.Write(...), fmt.Fprint*/io.WriteString(w, ...).
func bodyWriteTarget(pass *framework.Pass, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if sel.Sel.Name == "Write" {
		return responseWriterObj(pass, sel.X)
	}
	// fmt.Fprint / fmt.Fprintf / fmt.Fprintln / io.WriteString with the
	// writer as first argument.
	if pkg, ok := ast.Unparen(sel.X).(*ast.Ident); ok && len(call.Args) > 0 {
		if _, isPkg := pass.Info.Uses[pkg].(*types.PkgName); isPkg {
			switch sel.Sel.Name {
			case "Fprint", "Fprintf", "Fprintln", "WriteString":
				return responseWriterObj(pass, call.Args[0])
			}
		}
	}
	return nil
}

// writeHeaderTarget returns the ResponseWriter of a w.WriteHeader(...)
// call, or nil.
func writeHeaderTarget(pass *framework.Pass, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "WriteHeader" {
		return nil
	}
	return responseWriterObj(pass, sel.X)
}

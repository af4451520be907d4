// Package framework is a self-contained, standard-library-only analog of
// golang.org/x/tools/go/analysis, sized for this module's lint suite
// (cmd/relquerylint). It exists because the build environment is
// network-isolated: x/tools cannot be vendored, but everything the suite
// needs — parsed syntax, full type information, cross-package symbol
// metadata — is reachable with go/parser, go/types and the go command.
//
// The model mirrors go/analysis deliberately: an Analyzer is a named Run
// function over a Pass; a Pass carries one package's files and types;
// diagnostics are (position, message) pairs. Analyzer test
// fixtures use the analysistest convention: files under testdata/src/<pkg>
// annotated with `// want "regexp"` comments (see RunFixtures).
//
// Loading works without x/tools' go/packages: `go list -export -deps -test`
// supplies compiled export data for every dependency (standard library
// included), the packages under analysis are parsed and type-checked from
// source, and imports resolve through importer.ForCompiler's gc importer
// reading that export data. Test files are analyzed too: internal tests
// are type-checked together with their package, external _test packages
// separately.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant check. Run is invoked once per
// loaded package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -list output. By
	// convention it is a single lowercase word.
	Name string
	// Doc is a one-paragraph description: the invariant guarded and why
	// violating it is a bug in this codebase.
	Doc string
	// Run analyzes one package.
	Run func(*Pass) error
}

// A Pass provides one package's syntax and types to an Analyzer.Run and
// collects its diagnostics.
type Pass struct {
	// Analyzer is the analyzer this pass runs.
	Analyzer *Analyzer
	// Fset maps positions for every file in the enclosing Program.
	Fset *token.FileSet
	// Path is the package's import path ("_test"-suffixed for external
	// test packages).
	Path string
	// Files is the package's parsed syntax, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's results for Files.
	Info *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding: a resolved position, the analyzer that
// produced it, and the message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// WalkStack walks the AST in depth-first order like ast.Inspect, but
// additionally passes the stack of ancestor nodes (outermost first, not
// including n itself). Returning false prunes the subtree.
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		ok := fn(n, stack)
		// ast.Inspect sends the matching nil pop only when it descended,
		// so push exactly when descending.
		if ok {
			stack = append(stack, n)
		}
		return ok
	})
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		case *types.Alias:
			t = types.Unalias(u)
		default:
			return nil
		}
	}
}

// NamedOf is namedOf for analyzer use: the named type behind pointers
// and aliases, or nil.
func NamedOf(t types.Type) *types.Named { return namedOf(t) }

// IsNamed reports whether t (behind pointers/aliases) is the named type
// pkgName.typeName, matching the *package name* rather than path so that
// test fixtures mimicking a package (e.g. a fixture package "relation")
// exercise the same analyzer logic as the real one.
func IsNamed(t types.Type, pkgName, typeName string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Name() == pkgName && n.Obj().Name() == typeName
}

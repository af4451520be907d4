package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"testing"
)

// TestLoadAndRunOnModulePackage drives the whole loading pipeline (go
// list export closure, source type-check, importer) against a real
// module package and runs a trivial analyzer over it.
func TestLoadAndRunOnModulePackage(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := LoadPackages(root, "./internal/join/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	funcs := 0
	count := &Analyzer{
		Name: "count",
		Doc:  "counts function declarations",
		Run: func(pass *Pass) error {
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if _, ok := d.(*ast.FuncDecl); ok {
						funcs++
					}
				}
			}
			return nil
		},
	}
	diags, err := prog.Run(count)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("counting analyzer reported %d diagnostics", len(diags))
	}
	if funcs == 0 {
		t.Error("no function declarations seen in internal/join")
	}
}

// TestRunFixturesReporting checks the fixture harness end to end with an
// analyzer that flags functions named Bad.
func TestRunFixturesReporting(t *testing.T) {
	flagBad := &Analyzer{
		Name: "flagbad",
		Doc:  "flags functions named Bad",
		Run: func(pass *Pass) error {
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "Bad" {
						pass.Reportf(fd.Pos(), "function named Bad")
					}
				}
			}
			return nil
		},
	}
	RunFixtures(t, "testdata", flagBad, "x")
}

func TestSortDiagnostics(t *testing.T) {
	diags := []Diagnostic{
		{Pos: token.Position{Filename: "b.go", Line: 1, Column: 1}, Analyzer: "z", Message: "m"},
		{Pos: token.Position{Filename: "a.go", Line: 2, Column: 1}, Analyzer: "z", Message: "m"},
		{Pos: token.Position{Filename: "a.go", Line: 1, Column: 5}, Analyzer: "z", Message: "m"},
		{Pos: token.Position{Filename: "a.go", Line: 1, Column: 5}, Analyzer: "a", Message: "m"},
		{Pos: token.Position{Filename: "a.go", Line: 1, Column: 2}, Analyzer: "z", Message: "m"},
	}
	sortDiagnostics(diags)
	var got []string
	for _, d := range diags {
		got = append(got, d.String())
	}
	want := []string{
		"a.go:1:2: m (z)",
		"a.go:1:5: m (a)",
		"a.go:1:5: m (z)",
		"a.go:2:1: m (z)",
		"b.go:1:1: m (z)",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("order[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

const stackSrc = `package p

func f() {
	if true {
		_ = 1
	}
}
`

func TestWalkStack(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", stackSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	sawIf := false
	WalkStack(file, func(n ast.Node, stack []ast.Node) bool {
		if len(stack) > 0 && stack[0] != file {
			t.Errorf("stack[0] = %T, want *ast.File", stack[0])
		}
		if _, ok := n.(*ast.IfStmt); ok {
			sawIf = true
			// File > FuncDecl > BlockStmt enclose the if.
			if len(stack) != 3 {
				t.Errorf("if statement stack depth = %d, want 3", len(stack))
			}
		}
		return true
	})
	if !sawIf {
		t.Error("walk never reached the if statement")
	}

	// Pruning a FuncDecl must skip its body without corrupting the stack.
	visited := 0
	WalkStack(file, func(n ast.Node, stack []ast.Node) bool {
		visited++
		_, isFunc := n.(*ast.FuncDecl)
		return !isFunc
	})
	if visited != 3 { // file, ident (package name is not a Decl)... func decl
		// file, funcdecl, and the package name ident
		t.Errorf("pruned walk visited %d nodes, want 3", visited)
	}
}

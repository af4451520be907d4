package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one type-checked unit under analysis: a module package
// together with its internal test files, or an external _test package.
type Package struct {
	// Path is the import path ("_test"-suffixed for external test
	// packages).
	Path string
	// Files is the parsed syntax, comments included.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds type-checker results for Files.
	Info *types.Info
}

// A Program is a loaded set of packages sharing one FileSet and one
// export map.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	exports map[string]string
	imp     types.Importer
}

// listPackage is the subset of `go list -json` fields the loader reads.
type listPackage struct {
	Dir          string
	ImportPath   string
	Name         string
	Export       string
	ForTest      string
	Standard     bool
	DepOnly      bool // listed only as a dependency of the patterns
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// goList runs `go list -export -deps -test -json` in dir over patterns
// and decodes the stream.
func goList(dir string, patterns []string) ([]listPackage, error) {
	args := []string{
		"list", "-export", "-deps", "-test",
		"-json=Dir,ImportPath,Name,Export,ForTest,Standard,DepOnly,GoFiles,CgoFiles,TestGoFiles,XTestGoFiles",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// baseImportPath strips go list's test-variant suffix:
// "p [q.test]" -> "p".
func baseImportPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// buildExports maps import paths to compiled export-data files. For
// module packages with tests it prefers the test-augmented variant
// (ForTest == its own base path): external test packages then see their
// package's test helpers, and every other consumer sees a strict
// superset of the plain package. Recompiled-for-test variants of
// *dependent* packages (ForTest set to a different path) are skipped —
// keyed by base path they would clash across test binaries.
func buildExports(pkgs []listPackage) map[string]string {
	exports := make(map[string]string)
	for _, p := range pkgs {
		if p.Export == "" || strings.HasSuffix(p.Name, "_test") {
			continue
		}
		base := baseImportPath(p.ImportPath)
		switch {
		case p.ForTest == base:
			exports[base] = p.Export // augmented variant wins
		case p.ForTest == "":
			if _, ok := exports[base]; !ok {
				exports[base] = p.Export
			}
		}
	}
	return exports
}

// exportImporter resolves imports from compiled export data, falling
// back to on-demand `go list -export` for paths outside the initial
// closure, with an override map consulted first (used by fixture loads
// to wire source-checked fixture dependencies).
type exportImporter struct {
	dir       string
	gc        types.ImporterFrom
	exports   map[string]string
	overrides map[string]*types.Package
}

func newExportImporter(fset *token.FileSet, dir string, exports map[string]string) *exportImporter {
	ei := &exportImporter{dir: dir, exports: exports}
	ei.gc = importer.ForCompiler(fset, "gc", ei.lookup).(types.ImporterFrom)
	return ei
}

func (ei *exportImporter) lookup(path string) (io.ReadCloser, error) {
	if e, ok := ei.exports[path]; ok {
		return os.Open(e)
	}
	// Outside the preloaded closure (e.g. a fixture importing a stdlib
	// package the module does not use): ask the go command for just this
	// package's export data.
	listed, err := goList(ei.dir, []string{path})
	if err != nil {
		return nil, fmt.Errorf("no export data for %q: %w", path, err)
	}
	for _, p := range listed {
		if p.Export != "" && baseImportPath(p.ImportPath) == path && p.ForTest == "" {
			ei.exports[path] = p.Export
			return os.Open(p.Export)
		}
	}
	return nil, fmt.Errorf("no export data for %q", path)
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	if p, ok := ei.overrides[path]; ok {
		return p, nil
	}
	return ei.gc.ImportFrom(path, ei.dir, 0)
}

// LoadPackages loads, parses and type-checks every module package matched
// by patterns (run from dir, which must be inside the module), including
// test files. Dependencies resolve from compiled export data, so only the matched
// packages are type-checked from source.
func LoadPackages(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:    token.NewFileSet(),
		exports: buildExports(listed),
	}
	prog.imp = newExportImporter(prog.Fset, dir, prog.exports)

	for _, p := range listed {
		if p.Standard || p.ForTest != "" || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", p.ImportPath)
		}
		srcFiles := append(append([]string{}, p.GoFiles...), p.TestGoFiles...)
		if len(srcFiles) > 0 {
			pkg, err := prog.checkPackage(p.ImportPath, p.Dir, srcFiles)
			if err != nil {
				return nil, err
			}
			prog.Pkgs = append(prog.Pkgs, pkg)
		}
		// A dependency's external test package is left out: it may use
		// its package's export_test.go helpers, which only the
		// test-augmented export data — built for matched packages only —
		// carries.
		if len(p.XTestGoFiles) > 0 && !p.DepOnly {
			pkg, err := prog.checkPackage(p.ImportPath+"_test", p.Dir, p.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			prog.Pkgs = append(prog.Pkgs, pkg)
		}
	}
	return prog, nil
}

// checkPackage parses and type-checks one package from source.
func (prog *Program) checkPackage(path, dir string, fileNames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(prog.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: prog.imp}
	tpkg, err := conf.Check(path, prog.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Files: files, Types: tpkg, Info: info}, nil
}

// Run applies each analyzer to each loaded package and returns the
// findings sorted by position.
func (prog *Program) Run(analyzers ...*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     prog.Fset,
				Path:     pkg.Path,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

// ModuleRoot walks up from dir to the enclosing go.mod directory.
func ModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}

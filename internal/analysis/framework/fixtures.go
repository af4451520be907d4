package framework

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// RunFixtures loads the fixture packages under testdata/src/<pkg> in the
// given order, runs the analyzer over each, and checks its diagnostics
// against `// want "regexp"` comments (the analysistest convention: each
// want comment names, by regexp, a diagnostic expected on its own line;
// lines without a want comment must produce none).
//
// Fixture packages may import each other (list dependencies first), the
// module's real packages, and the standard library. They are ordinary
// Go source that must type-check, but live under testdata so the go tool
// ignores them.
func RunFixtures(t *testing.T, testdata string, a *Analyzer, pkgs ...string) {
	t.Helper()
	prog, loaded, err := loadFixtures(testdata, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	var diags []Diagnostic
	for _, pkg := range loaded {
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
			t.Fatalf("%s: %s: %v", a.Name, pkg.Path, err)
		}
	}
	sortDiagnostics(diags)
	checkWants(t, prog.Fset, loaded, diags)
}

// moduleList caches one `go list -export -deps -test ./...` run per test
// process: every fixture load shares the same export closure.
var moduleList struct {
	once    sync.Once
	err     error
	root    string
	exports map[string]string
}

func loadModuleList() error {
	moduleList.once.Do(func() {
		wd, err := os.Getwd()
		if err != nil {
			moduleList.err = err
			return
		}
		root, err := ModuleRoot(wd)
		if err != nil {
			moduleList.err = err
			return
		}
		listed, err := goList(root, []string{"./..."})
		if err != nil {
			moduleList.err = err
			return
		}
		moduleList.root = root
		moduleList.exports = buildExports(listed)
	})
	return moduleList.err
}

// loadFixtures type-checks the fixture packages in order, resolving
// imports of earlier fixtures from source and everything else from
// export data.
func loadFixtures(testdata string, pkgs []string) (*Program, []*Package, error) {
	if err := loadModuleList(); err != nil {
		return nil, nil, err
	}
	exports := make(map[string]string, len(moduleList.exports))
	for k, v := range moduleList.exports {
		exports[k] = v
	}
	prog := &Program{
		Fset:    token.NewFileSet(),
		exports: exports,
	}
	ei := newExportImporter(prog.Fset, moduleList.root, prog.exports)
	ei.overrides = make(map[string]*types.Package)
	prog.imp = ei

	var loaded []*Package
	for _, name := range pkgs {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(name))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, nil, err
		}
		var fileNames []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				fileNames = append(fileNames, e.Name())
			}
		}
		if len(fileNames) == 0 {
			return nil, nil, fmt.Errorf("no Go files in fixture %s", dir)
		}
		pkg, err := prog.checkPackage(name, dir, fileNames)
		if err != nil {
			return nil, nil, err
		}
		ei.overrides[name] = pkg.Types
		prog.Pkgs = append(prog.Pkgs, pkg)
		loaded = append(loaded, pkg)
	}
	return prog, loaded, nil
}

// want is one expectation: a diagnostic matching rx on line (of file).
type want struct {
	file string
	line int
	rx   *regexp.Regexp
	raw  string
	met  bool
}

var wantRE = regexp.MustCompile(`//\s*want\b(.*)$`)

// parseWants extracts `// want "rx" "rx"...` expectations from the
// fixture files.
func parseWants(fset *token.FileSet, pkgs []*Package) ([]*want, error) {
	var wants []*want
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					rest := strings.TrimSpace(m[1])
					if rest == "" {
						// A bare `// want` expects nothing, matching the
						// no-comment case exactly: the fixture would pass
						// vacuously whatever the analyzer does. Fail loudly
						// instead — a malformed expectation is a harness
						// bug, not a clean run.
						return nil, fmt.Errorf("%s: want comment carries no pattern (write `// want \"regexp\"`)", pos)
					}
					for rest != "" {
						quote := rest[0]
						if quote != '"' && quote != '`' {
							return nil, fmt.Errorf("%s: malformed want comment %q", pos, c.Text)
						}
						end := 1
						for end < len(rest) && (rest[end] != quote || (quote == '"' && rest[end-1] == '\\')) {
							end++
						}
						if end == len(rest) {
							return nil, fmt.Errorf("%s: unterminated want pattern in %q", pos, c.Text)
						}
						lit := rest[:end+1]
						rest = strings.TrimSpace(rest[end+1:])
						unq, err := strconv.Unquote(lit)
						if err != nil {
							return nil, fmt.Errorf("%s: bad want pattern %s: %w", pos, lit, err)
						}
						rx, err := regexp.Compile(unq)
						if err != nil {
							return nil, fmt.Errorf("%s: bad want regexp %q: %w", pos, unq, err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, rx: rx, raw: unq})
					}
				}
			}
		}
	}
	return wants, nil
}

// checkWants matches diagnostics against expectations, failing the test
// on unmatched diagnostics or unmet expectations.
func checkWants(t *testing.T, fset *token.FileSet, pkgs []*Package, diags []Diagnostic) {
	t.Helper()
	wants, err := parseWants(fset, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.met || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.rx.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

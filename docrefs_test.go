package braidio

// docrefs_test fails if DESIGN.md or README.md names code that no longer
// exists: every backticked pkg.Name, where pkg is the root package
// (braidio) or a directory under internal/, must be a function, method,
// type, variable or constant declared in that package's non-test files.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// codeSpan matches one inline code span of a markdown paragraph.
var codeSpan = regexp.MustCompile("`([^`]+)`")

// docRef matches pkg.Name inside a code span: a lowercase identifier
// that is not the tail of a path or a longer selector, then an exported
// identifier. Lowercase tails are skipped because they name files
// (`phy.go`) as often as code.
var docRef = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)`)

func TestDocsNameLiveCode(t *testing.T) {
	dirs := map[string]string{"braidio": "."}
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			dirs[e.Name()] = filepath.Join("internal", e.Name())
		}
	}
	decls := map[string]map[string]bool{}
	checked := 0
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range inlineCode(string(b)) {
			for _, m := range docRef.FindAllStringSubmatch(span, -1) {
				pkg, name := m[1], m[2]
				dir, ok := dirs[pkg]
				if !ok {
					continue
				}
				if decls[dir] == nil {
					decls[dir] = declaredNames(t, dir)
				}
				checked++
				if !decls[dir][name] {
					t.Errorf("%s: `%s` names %s.%s, which %s does not declare", doc, span, pkg, name, dir)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no package references found in the docs; the patterns are broken")
	}
}

// inlineCode returns a markdown document's inline code spans. Fenced
// blocks are skipped; a span may wrap lines but not cross a blank line.
func inlineCode(doc string) []string {
	var spans []string
	var para strings.Builder
	flush := func() {
		for _, m := range codeSpan.FindAllStringSubmatch(para.String(), -1) {
			spans = append(spans, m[1])
		}
		para.Reset()
	}
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		switch trimmed := strings.TrimSpace(line); {
		case strings.HasPrefix(trimmed, "```"):
			flush()
			fenced = !fenced
		case fenced:
		case trimmed == "":
			flush()
		default:
			para.WriteString(line)
			para.WriteByte('\n')
		}
	}
	flush()
	return spans
}

// declaredNames returns every top-level function, method, type, variable
// and constant name declared in dir's non-test Go files.
func declaredNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				names[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

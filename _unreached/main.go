// Command unreached lists the functions and methods declared in the
// non-test files under internal/ that no program links and no root
// braidio API name reaches, and exits 1 when any of them is not one of
// the kept test references below.
//
// Run it from the repository root:
//
//	make unreached    # or: go run ./_unreached
//
// It links the programs (every ./cmd and ./examples directory, and the
// bench module) with inlining off, lists their text symbols with `go
// tool nm`, and compares them with the declarations go/parser finds.
// Code that backs the root API counts as reached: the tool generates a
// program that refers to every exported root function and variable and
// to every exported method of every exported non-interface type, links
// it the same way, and drops whatever it links too. The linker keeps
// some methods for interface conversions, so the count is a floor.
//
// The directory's leading underscore keeps it out of `go build ./...`,
// so the tool is neither library code nor one of the programs it links.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const module = "braidio"

// kept are unreached on purpose: each is a reference or lever that a
// test of live code uses, and its doc comment names those tests.
var kept = map[string]bool{
	"braidio/internal/core.ScheduleBlocks":    true,
	"braidio/internal/energy.Proportionality": true,
	"braidio/internal/obs.(*Histogram).Count": true,
	"braidio/internal/linkcache.SetEnabled":   true,
}

func main() {
	fail, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(2)
	}
	if fail {
		os.Exit(1)
	}
}

// run prints every unreached function and a summary line, and reports
// whether any unreached function is not a kept reference.
func run() (fail bool, err error) {
	root, err := os.Getwd()
	if err != nil {
		return false, err
	}
	tmp, err := os.MkdirTemp("", "unreached-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)

	declared, err := declaredFuncs(root)
	if err != nil {
		return false, err
	}
	programs, err := programSymbols(root, tmp)
	if err != nil {
		return false, err
	}
	api, err := rootAPISymbols(root, tmp)
	if err != nil {
		return false, err
	}

	inNoProgram, unreached := 0, 0
	for _, name := range declared {
		if programs[name] {
			continue
		}
		inNoProgram++
		if api[name] {
			continue
		}
		unreached++
		if kept[name] {
			fmt.Println(name, "(kept test reference)")
		} else {
			fmt.Println(name)
			fail = true
		}
	}
	fmt.Printf("%d functions declared, %d in no program, %d unreached\n",
		len(declared), inNoProgram, unreached)
	return fail, nil
}

// declaredFuncs returns every function and method with a body in the
// non-test files under internal/, named as `go tool nm` names them:
// pkg.Func, pkg.Type.Method or pkg.(*Type).Method, with the receiver's
// type parameters dropped.
func declaredFuncs(root string) ([]string, error) {
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(rel)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			names = append(names, pkg+"."+recvPrefix(fn)+fn.Name.Name)
		}
		return nil
	})
	sort.Strings(names)
	return names, err
}

func recvPrefix(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ, ptr := fn.Recv.List[0].Type, false
	if star, ok := typ.(*ast.StarExpr); ok {
		typ, ptr = star.X, true
	}
	switch t := typ.(type) {
	case *ast.IndexExpr:
		typ = t.X
	case *ast.IndexListExpr:
		typ = t.X
	}
	name := typ.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")."
	}
	return name + "."
}

// programSymbols links every program with inlining off and returns the
// union of their text symbols.
func programSymbols(root, tmp string) (map[string]bool, error) {
	bin := filepath.Join(tmp, "bin")
	if err := os.Mkdir(bin, 0o755); err != nil {
		return nil, err
	}
	if err := goCmd(root, "build", "-gcflags=all=-l", "-o", bin+string(filepath.Separator), "./cmd/...", "./examples/..."); err != nil {
		return nil, err
	}
	if err := goCmd(filepath.Join(root, "bench"), "build", "-gcflags=all=-l", "-o", filepath.Join(bin, "bench"), "."); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(bin)
	if err != nil {
		return nil, err
	}
	syms := map[string]bool{}
	for _, e := range entries {
		if err := addSymbols(syms, filepath.Join(bin, e.Name())); err != nil {
			return nil, err
		}
	}
	return syms, nil
}

// rootAPISymbols generates and links a program that refers to every
// exported name of the root package that has code behind it, and
// returns its text symbols.
func rootAPISymbols(root, tmp string) (map[string]bool, error) {
	pkg, err := importer.ForCompiler(token.NewFileSet(), "source", nil).Import(module)
	if err != nil {
		return nil, err
	}
	var refs []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch obj := obj.(type) {
		case *types.Func:
			if obj.Type().(*types.Signature).TypeParams().Len() == 0 {
				refs = append(refs, module+"."+name)
			}
		case *types.Var:
			refs = append(refs, module+"."+name)
		case *types.TypeName:
			if types.IsInterface(obj.Type()) {
				continue
			}
			if named, ok := obj.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(obj.Type()))
			for i := 0; i < mset.Len(); i++ {
				if m := mset.At(i).Obj(); m.Exported() {
					refs = append(refs, fmt.Sprintf("(*%s.%s).%s", module, name, m.Name()))
				}
			}
		}
	}

	var src bytes.Buffer
	fmt.Fprintf(&src, "package main\n\nimport %q\n\nvar sink []any\n\nfunc main() {\n", module)
	for _, ref := range refs {
		fmt.Fprintf(&src, "\tsink = append(sink, %s)\n", ref)
	}
	src.WriteString("}\n")
	dir := filepath.Join(tmp, "rootapi")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	mod := fmt.Sprintf("module rootapi\n\ngo 1.22\n\nrequire %s v0.0.0\n\nreplace %s => %s\n", module, module, root)
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(mod), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), src.Bytes(), 0o644); err != nil {
		return nil, err
	}
	exe := filepath.Join(tmp, "rootapi.exe")
	if err := goCmd(dir, "build", "-gcflags=all=-l", "-o", exe, "."); err != nil {
		return nil, err
	}
	syms := map[string]bool{}
	return syms, addSymbols(syms, exe)
}

// instantiation matches one innermost generic instantiation suffix.
var instantiation = regexp.MustCompile(`\[[^][]*\]`)

// addSymbols adds the text symbols of binary to syms, generic
// instantiation suffixes stripped, innermost first, until none is left.
func addSymbols(syms map[string]bool, binary string) error {
	out, err := exec.Command("go", "tool", "nm", binary).Output()
	if err != nil {
		return fmt.Errorf("go tool nm %s: %w", binary, err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		// address, type, then the name, which may hold spaces.
		f := strings.SplitN(strings.TrimSpace(line), " ", 3)
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		name := f[2]
		for {
			stripped := instantiation.ReplaceAllString(name, "")
			if stripped == name {
				break
			}
			name = stripped
		}
		syms[name] = true
	}
	return nil
}

func goCmd(dir string, args ...string) error {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go %s in %s: %w", strings.Join(args, " "), dir, err)
	}
	return nil
}

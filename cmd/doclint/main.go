// Command doclint fails when a package exports identifiers without doc
// comments, or when a package exports a way in that nothing outside it uses,
// keeping `go doc` of every package coherent and no larger than its callers
// need. It is the lint step behind `make docs` and the CI docs gate.
//
// Usage:
//
//	go run ./cmd/doclint [package-dir ...]
//
// With no arguments the current directory is linted. Run it from the module
// root: the module is the one whose go.mod is in the current directory. Two
// rules apply; test files are ignored by both.
//
// The doc rule: for every exported top-level type, function, method,
// constant, and variable, either the declaration or its enclosing
// declaration group must carry a doc comment; each package must also have a
// package comment.
//
// The caller rule: each exported top-level identifier of a linted package
// (methods are outside the rule) must meet one of:
//
//   - it is named as pkg.X in a non-test file of another package in the
//     module, commands, examples and benchmarks included (directories named
//     testdata, or starting with "." or "_", and nested modules are not part
//     of it);
//   - its doc comment, or its declaration group's, carries a line
//     `//api:keep <reason>`;
//   - it is a type that appears in the signature, type or exported fields
//     of an identifier meeting one of the two conditions above, or in an
//     exported method of a type that does, or it is a constant of such a
//     type.
//
// An //api:keep line in the package comment keeps every export of the
// package (a test harness whose callers are tests). A keep line without a
// reason is itself a finding.
//
// The caller rule type-checks, from source, the files go/build selects for
// the host, so a declaration split across //go:build twins is seen once.
// Findings print as file:line: messages and the exit status is 1 when any
// exist.
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = []string{"."}
	}
	findings, err := lint(dirs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Printf("%s:%d: %s\n", f.pos.Filename, f.pos.Line, f.msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

type finding struct {
	pos token.Position
	msg string
}

// lint applies both rules to each directory, which must lie in the module
// rooted at the current directory, and returns the findings by position.
func lint(dirs []string) ([]finding, error) {
	modPath, err := modulePath(".")
	if err != nil {
		return nil, err
	}
	refs, err := moduleRefs(modPath)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var findings []finding
	for _, dir := range dirs {
		fs, err := lintDir(fset, imp, dir, modPath, refs)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].pos.Filename != findings[j].pos.Filename {
			return findings[i].pos.Filename < findings[j].pos.Filename
		}
		return findings[i].pos.Line < findings[j].pos.Line
	})
	return findings, nil
}

// lintDir parses one directory's non-test files, reports undocumented
// exported identifiers in each of them and applies the caller rule to the
// package go/build selects there, given the names refs says other packages
// select from each import path.
func lintDir(fset *token.FileSet, imp types.Importer, dir, modPath string, refs map[string]map[string]bool) ([]finding, error) {
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []finding
	for _, pkg := range pkgs {
		out = append(out, lintPackage(fset, pkg)...)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(".", dir)
	if err != nil || !filepath.IsLocal(rel) {
		return nil, fmt.Errorf("%s is outside the module in the current directory", dir)
	}
	path := modPath
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		files = append(files, pkgs[bp.Name].Files[filepath.Join(dir, name)])
	}
	fs, err := lintCallers(fset, imp, path, files, refs[path])
	if err != nil {
		return nil, err
	}
	return append(out, fs...), nil
}

func lintPackage(fset *token.FileSet, pkg *ast.Package) []finding {
	var out []finding
	hasPkgDoc := false
	for _, f := range pkg.Files {
		if f.Doc != nil {
			hasPkgDoc = true
		}
	}
	if !hasPkgDoc {
		// Anchor the finding to the lexically first file for a stable,
		// clickable location.
		names := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files {
			names = append(names, name)
		}
		sort.Strings(names)
		out = append(out, finding{
			pos: fset.Position(pkg.Files[names[0]].Package),
			msg: fmt.Sprintf("package %s has no package comment", pkg.Name),
		})
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			out = append(out, lintDecl(fset, decl)...)
		}
	}
	return out
}

func lintDecl(fset *token.FileSet, decl ast.Decl) []finding {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Doc != nil || !d.Name.IsExported() || isExportedMethodOfUnexported(d) {
			return nil
		}
		kind := "function"
		name := d.Name.Name
		if d.Recv != nil {
			kind = "method"
			name = recvTypeName(d.Recv) + "." + name
		}
		return []finding{{fset.Position(d.Pos()), fmt.Sprintf("exported %s %s is undocumented", kind, name)}}
	case *ast.GenDecl:
		var out []finding
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && s.Doc == nil && s.Comment == nil && d.Doc == nil {
					out = append(out, finding{fset.Position(s.Pos()),
						fmt.Sprintf("exported type %s is undocumented", s.Name.Name)})
				}
			case *ast.ValueSpec:
				// A doc comment on the const/var group covers its members,
				// matching idiomatic grouped declarations.
				if s.Doc != nil || s.Comment != nil || d.Doc != nil {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() {
						out = append(out, finding{fset.Position(n.Pos()),
							fmt.Sprintf("exported %s %s is undocumented", kindOf(d.Tok), n.Name)})
					}
				}
			}
		}
		return out
	}
	return nil
}

// isExportedMethodOfUnexported reports whether d is a method on an
// unexported receiver type; such methods never surface in go doc, so they
// are exempt.
func isExportedMethodOfUnexported(d *ast.FuncDecl) bool {
	if d.Recv == nil {
		return false
	}
	name := recvTypeName(d.Recv)
	return name != "" && !ast.IsExported(name)
}

func recvTypeName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

func kindOf(tok token.Token) string {
	if tok == token.CONST {
		return "constant"
	}
	return "variable"
}

// modulePath returns the module path declared by dir's go.mod.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if errors.Is(err, fs.ErrNotExist) {
		return "", errors.New("no go.mod in the current directory: run doclint from the module root")
	}
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod declares no module", dir)
}

// moduleRefs returns, for each import path of the module rooted at the
// current directory, the names that non-test files of the module select
// from it. A file cannot import its own package, so every name recorded
// for a package comes from another one.
func moduleRefs(modPath string) (map[string]map[string]bool, error) {
	refs := make(map[string]map[string]bool)
	names := make(map[string]string) // package name by import path
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path == "." {
				return nil
			}
			name := e.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value) // the parser checked the literal
			rel, ok := strings.CutPrefix(ipath, modPath)
			if !ok || rel != "" && rel[0] != '/' {
				continue
			}
			local, ok := names[ipath]
			if !ok {
				bp, err := build.ImportDir("."+rel, 0)
				if err != nil {
					return fmt.Errorf("%s imports %s: %w", path, ipath, err)
				}
				local, names[ipath] = bp.Name, bp.Name
			}
			if imp.Name != nil {
				local = imp.Name.Name
			}
			if refs[ipath] == nil {
				refs[ipath] = make(map[string]bool)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
						refs[ipath][sel.Sel.Name] = true
					}
				}
				return true
			})
		}
		return nil
	})
	return refs, err
}

// lintCallers applies the caller rule to the package of files, imported as
// path, given the names other packages of the module select from it. It
// type-checks the package, from source, so that a type it re-exports by
// alias and a constant declared by conversion or through another package
// count as the types they are.
func lintCallers(fset *token.FileSet, imp types.Importer, path string, files []*ast.File, refs map[string]bool) ([]finding, error) {
	for _, f := range files {
		if k := keepOf(f.Doc); k.ok {
			if k.reason == "" {
				return []finding{{fset.Position(f.Package),
					fmt.Sprintf("package %s has an //api:keep line without a reason", f.Name.Name)}}, nil
			}
			return nil, nil
		}
	}
	keeps := make(map[token.Pos]keepLine) // by the position of the name
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					keeps[d.Name.Pos()] = keepOf(d.Doc)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						keeps[s.Name.Pos()] = keepOf(s.Doc, d.Doc)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							keeps[n.Pos()] = keepOf(s.Doc, d.Doc)
						}
					}
				}
			}
		}
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, nil)
	if err != nil {
		return nil, err
	}

	// Walk every type the referenced or kept identifiers show, and the
	// types those types' exported fields and methods show in turn.
	shown := make(map[*types.Named]bool)
	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch t := t.(type) {
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Named:
			if shown[t] {
				return
			}
			shown[t] = true
			walk(t.Underlying())
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					walk(m.Type())
				}
			}
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case interface{ Elem() types.Type }: // pointer, slice, array, channel
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	scope := tpkg.Scope()
	var exports []types.Object
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() {
			exports = append(exports, obj)
			if refs[name] || keeps[obj.Pos()].ok {
				walk(obj.Type())
			}
		}
	}

	var out []finding
	for _, obj := range exports {
		k := keeps[obj.Pos()]
		named, _ := types.Unalias(obj.Type()).(*types.Named)
		_, isType := obj.(*types.TypeName)
		_, isConst := obj.(*types.Const)
		switch {
		case k.ok && k.reason == "":
			out = append(out, finding{fset.Position(obj.Pos()),
				fmt.Sprintf("exported %s %s has an //api:keep line without a reason", kindName(obj), obj.Name())})
		case k.ok, refs[obj.Name()], (isType || isConst) && shown[named]:
		default:
			out = append(out, finding{fset.Position(obj.Pos()),
				fmt.Sprintf("exported %s %s has no caller outside package %s: name it from another package or give it an //api:keep <reason> line",
					kindName(obj), obj.Name(), tpkg.Name())})
		}
	}
	return out, nil
}

func kindName(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "function"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "constant"
	}
	return "variable"
}

// keepLine is a declaration's //api:keep line: whether there is one, and
// the reason it gives.
type keepLine struct {
	ok     bool
	reason string
}

// keepOf returns the first //api:keep line in docs.
func keepOf(docs ...*ast.CommentGroup) keepLine {
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if rest, ok := strings.CutPrefix(c.Text, "//api:keep"); ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
				return keepLine{true, strings.TrimSpace(rest)}
			}
		}
	}
	return keepLine{}
}

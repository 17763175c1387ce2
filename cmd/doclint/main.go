// Command doclint fails when a package exports identifiers without doc
// comments, or when a package exports a way in that nothing else uses,
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
// The caller rule reads the uses of every non-test package of the module,
// commands, examples and benchmarks included (directories named testdata,
// or starting with "." or "_", and nested modules are not part of it),
// type-checked together from source. Each exported top-level identifier of
// a linted package must meet one of:
//
//   - a non-test file of another package in the module names it;
//   - its doc comment, or its declaration group's, carries a line
//     `//api:keep <reason>`;
//   - it is a type that appears in the signature, type or exported fields
//     of an identifier meeting one of the two conditions above, or in an
//     exported method of a type that does, or it is a constant of such a
//     type.
//
// Each exported method of a named type of a linted package must meet one
// of:
//
//   - a non-test file of the module, its own package's included, selects it,
//     directly or promoted through an embedded field;
//   - a type of the module whose method set holds it, its own or one that
//     embeds it, implements an interface that has it: an interface the
//     module's non-test files declare or write, the predeclared error, or
//     one a standard-library package they import declares;
//   - its doc comment carries a line `//api:keep <reason>`.
//
// An //api:keep line in the package comment keeps every export of the
// package, methods included (a test harness whose callers are tests). A
// keep line without a reason is itself a finding.
//
// Only the files go/build selects for the host are type-checked, so a
// declaration split across //go:build twins is seen once. Findings print as
// file:line: messages and the exit status is 1 when any exist.
package main

import (
	"cmp"
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
	"path"
	"path/filepath"
	"slices"
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

// lint applies both rules to each directory, which must hold a package of
// the module rooted at the current directory, and returns the findings by
// position.
func lint(dirs []string) ([]finding, error) {
	m, err := loadModule()
	if err != nil {
		return nil, err
	}
	u := m.uses()
	var findings []finding
	for _, dir := range dirs {
		dir, err := m.rel(dir)
		if err != nil {
			return nil, err
		}
		pkgs, err := parser.ParseDir(m.fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, pkg := range pkgs {
			findings = append(findings, lintPackage(m.fset, pkg)...)
		}
		p, err := m.load(m.importPath(dir))
		if err != nil {
			return nil, err
		}
		findings = append(findings, lintCallers(m.fset, p, u)...)
	}
	slices.SortFunc(findings, func(a, b finding) int {
		return cmp.Or(strings.Compare(a.pos.Filename, b.pos.Filename), cmp.Compare(a.pos.Line, b.pos.Line))
	})
	return findings, nil
}

func lintPackage(fset *token.FileSet, pkg *ast.Package) []finding {
	var out []finding
	hasPkgDoc, first := false, ""
	for name, f := range pkg.Files {
		hasPkgDoc = hasPkgDoc || f.Doc != nil
		if first == "" || name < first {
			first = name
		}
	}
	if !hasPkgDoc {
		// Anchor the finding to the lexically first file for a stable,
		// clickable location.
		out = append(out, finding{fset.Position(pkg.Files[first].Package), "package " + pkg.Name + " has no package comment"})
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
		kind, name := "function", d.Name.Name
		if d.Recv != nil {
			// A method of an unexported type never surfaces in go doc.
			recv := recvTypeName(d.Recv)
			if !ast.IsExported(recv) {
				return nil
			}
			kind, name = "method", recv+"."+name
		}
		if d.Doc != nil || !d.Name.IsExported() {
			return nil
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
							fmt.Sprintf("exported %s %s is undocumented", map[token.Token]string{token.CONST: "constant", token.VAR: "variable"}[d.Tok], n.Name)})
					}
				}
			}
		}
		return out
	}
	return nil
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

// module is every non-test package of the module rooted at the current
// directory, type-checked from source together, so that the object one
// package uses is the object another declares.
type module struct {
	fset *token.FileSet
	path string          // the module path
	root string          // the absolute directory of the module root
	pkgs map[string]*pkg // by import path
	std  types.Importer  // for every package outside the module
}

// pkg is one type-checked package of the module.
type pkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

func loadModule() (*module, error) {
	modPath, err := modulePath(".")
	if err != nil {
		return nil, err
	}
	root, err := filepath.Abs(".")
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	m := &module{fset: fset, path: modPath, root: root, pkgs: make(map[string]*pkg),
		std: importer.ForCompiler(fset, "source", nil)}
	err = filepath.WalkDir(".", func(dir string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if dir != "." {
			name := e.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module
			}
		}
		_, err = m.load(m.importPath(dir))
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		return err
	})
	return m, err
}

// importPath returns the import path of dir, a directory of the module
// given relative to its root.
func (m *module) importPath(dir string) string { return path.Join(m.path, filepath.ToSlash(dir)) }

// rel returns dir, absolute or relative to the current directory, relative
// to the module root; it must lie in the module.
func (m *module) rel(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(m.root, abs)
	if err != nil || !filepath.IsLocal(rel) {
		return "", fmt.Errorf("%s is outside the module in the current directory", dir)
	}
	return rel, nil
}

// load type-checks, once, the package at path, a path in the module.
func (m *module) load(path string) (*pkg, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	dir := "." + strings.TrimPrefix(path, m.path)
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &pkg{info: &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: m}
	if p.types, err = conf.Check(path, m.fset, p.files, p.info); err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

// inModule reports whether path is an import path of the module.
func (m *module) inModule(path string) bool {
	return path == m.path || strings.HasPrefix(path, m.path+"/")
}

// Import makes the module the importer of its own packages.
func (m *module) Import(path string) (*types.Package, error) {
	if !m.inModule(path) {
		return m.std.Import(path)
	}
	p, err := m.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// uses is what the non-test files of the module use: the top-level objects
// each package names from another, and the methods that some file selects
// or that an interface the module names reaches.
type uses struct {
	external map[types.Object]bool
	methods  map[*types.Func]bool
}

func (m *module) uses() uses {
	u := uses{external: make(map[types.Object]bool), methods: make(map[*types.Func]bool)}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	var named []*types.Named
	std := make(map[*types.Package]bool)
	for _, p := range m.pkgs {
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				u.methods[fn.Origin()] = true
			} else if obj.Pkg() != nil && obj.Pkg() != p.types && obj.Parent() == obj.Pkg().Scope() {
				u.external[obj] = true
			}
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					ifaces = append(ifaces, p.info.TypeOf(it).(*types.Interface))
				}
				return true
			})
		}
		for _, imp := range p.types.Imports() {
			if m.inModule(imp.Path()) || std[imp] {
				continue
			}
			std[imp] = true
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && types.IsInterface(tn.Type()) {
					ifaces = append(ifaces, tn.Type().Underlying().(*types.Interface))
				}
			}
		}
	}
	// A method that a type's method set holds, its own or promoted from an
	// embedded field, is used when the type implements an interface that
	// has it.
	for _, n := range named {
		ptr := types.NewPointer(n)
		for _, it := range ifaces {
			if it.NumMethods() == 0 || !it.IsMethodSet() || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				im := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, im.Pkg(), im.Name())
				if fn, ok := obj.(*types.Func); ok {
					u.methods[fn.Origin()] = true
				}
			}
		}
	}
	return u
}

// lintCallers applies the caller rule to p given what the module uses.
// Types count as the types they are, so that a type the package re-exports
// by alias and a constant declared by conversion or through another package
// are seen for what they name.
func lintCallers(fset *token.FileSet, p *pkg, u uses) []finding {
	for _, f := range p.files {
		if k := keepOf(f.Doc); k.ok {
			if k.reason == "" {
				return []finding{{fset.Position(f.Package),
					fmt.Sprintf("package %s has an //api:keep line without a reason", f.Name.Name)}}
			}
			return nil
		}
	}
	keeps := make(map[token.Pos]keepLine) // by the position of the name
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				keeps[d.Name.Pos()] = keepOf(d.Doc)
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
	scope := p.types.Scope()
	var exports []types.Object
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() {
			exports = append(exports, obj)
			if u.external[obj] || keeps[obj.Pos()].ok {
				walk(obj.Type())
			}
		}
	}

	var out []finding
	check := func(obj types.Object, what string, used bool, fix string) {
		switch k := keeps[obj.Pos()]; {
		case k.ok && k.reason == "":
			out = append(out, finding{fset.Position(obj.Pos()), "exported " + what + " has an //api:keep line without a reason"})
		case !k.ok && !used:
			out = append(out, finding{fset.Position(obj.Pos()), "exported " + what + " has no caller" + fix})
		}
	}
	for _, obj := range exports {
		named, _ := types.Unalias(obj.Type()).(*types.Named)
		_, isType := obj.(*types.TypeName)
		_, isConst := obj.(*types.Const)
		check(obj, kindName(obj)+" "+obj.Name(), u.external[obj] || (isType || isConst) && shown[named],
			" outside package "+p.types.Name()+": name it from another package or give it an //api:keep <reason> line")
	}
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					check(m, "method "+name+"."+m.Name(), u.methods[m],
						": select it from a non-test file, implement an interface with it or give it an //api:keep <reason> line")
				}
			}
		}
	}
	return out
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

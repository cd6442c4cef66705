package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// directivePrefix introduces every machine-readable annotation. Using the
// Go directive-comment shape (no space after //) keeps gofmt from moving or
// reflowing them.
const directivePrefix = "//gamelens:"

// KnownKeys is the closed directive vocabulary, key -> enforcing analyzer.
// Anything else after //gamelens: is a lintgate finding.
var KnownKeys = map[string]string{
	"borrowed":         "borrowcheck",
	"retain-ok":        "borrowcheck",
	"noalloc":          "noalloc",
	"alloc-ok":         "noalloc",
	"wallclock-ok":     "wallclock",
	"single-goroutine": "spscaffinity",
	"transfer-ok":      "spscaffinity",
	"sorted":           "detjson",
}

// typeDirective is the one key that annotates a type declaration; every
// other declaration-level key describes a function.
const typeDirective = "single-goroutine"

func knownKeyList() string {
	keys := make([]string, 0, len(KnownKeys))
	for k := range KnownKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// Directive is one parsed //gamelens: comment.
type Directive struct {
	Key    string
	Reason string // free text after the key, if any
	Pos    token.Position
}

// PkgDirectives holds one package's directives, resolved against its AST.
type PkgDirectives struct {
	// Funcs maps a declared func/method (by symbolic key, see funcKeyOfDecl)
	// to its declaration-attached directives.
	Funcs map[string][]Directive
	// Types maps a declared named type to its directives.
	Types map[string][]Directive
	// escapes indexes statement-level escapes: file -> line -> keys present
	// on that line. A directive on line L escapes findings on L and L+1.
	escapes map[string]map[int][]string
	// Unknown collects directives whose key is not in KnownKeys.
	Unknown []Directive
	// Misplaced collects known directives on a type declaration other than
	// typeDirective, the only one a type can carry.
	Misplaced []Directive
}

func (d *PkgDirectives) escapedAt(pos token.Position, key string) bool {
	lines := d.escapes[pos.Filename]
	if lines == nil {
		return false
	}
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, k := range lines[l] {
			if k == key {
				return true
			}
		}
	}
	return false
}

// FuncHas reports whether the declaration of key carries the directive.
func (d *PkgDirectives) FuncHas(key, directive string) bool {
	return hasKey(d.Funcs[key], directive)
}

func hasKey(ds []Directive, key string) bool {
	for _, d := range ds {
		if d.Key == key {
			return true
		}
	}
	return false
}

// Registry is the module-wide symbolic directive index, built by a
// parse-only sweep over every package in the module. Analyzers consult it
// for cross-package questions ("is the callee I'm looking at annotated
// borrowed in its home package?") where the per-package PkgDirectives
// cannot answer because the callee's source was never loaded.
type Registry struct {
	// Funcs and Types are keyed exactly like funcKey/typeKey output:
	// "modpath/pkg.Name", "modpath/pkg.Recv.Name", "modpath/pkg.Type".
	Funcs map[string][]string // key -> directive keys
	Types map[string][]string
}

// FuncHas reports whether the function with the given symbolic key carries
// the directive anywhere in the module.
func (r *Registry) FuncHas(key, directive string) bool {
	return containsStr(r.Funcs[key], directive)
}

// TypeHas reports whether the named type with the given symbolic key
// carries the directive.
func (r *Registry) TypeHas(key, directive string) bool {
	return containsStr(r.Types[key], directive)
}

func containsStr(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// parseDirective extracts a Directive from one comment, or ok=false.
func parseDirective(c *ast.Comment, fset *token.FileSet) (Directive, bool) {
	text, found := strings.CutPrefix(c.Text, directivePrefix)
	if !found {
		return Directive{}, false
	}
	key, reason, _ := strings.Cut(text, " ")
	return Directive{Key: key, Reason: strings.TrimSpace(reason), Pos: fset.Position(c.Pos())}, true
}

// scanPackage builds the directive tables for one loaded package.
func scanPackage(pkg *Pkg) *PkgDirectives {
	d := &PkgDirectives{
		Funcs:   map[string][]Directive{},
		Types:   map[string][]Directive{},
		escapes: map[string]map[int][]string{},
	}
	for _, f := range pkg.Files {
		scanFile(pkg.Fset, pkg.Path, f, d)
	}
	return d
}

func scanFile(fset *token.FileSet, pkgPath string, f *ast.File, d *PkgDirectives) {
	// Index which comments belong to a declaration doc block, so the escape
	// table only holds genuine statement-level directives.
	docComments := map[*ast.Comment]bool{}
	declKeyed := func(doc *ast.CommentGroup, into *map[string][]Directive, key string, onType bool) {
		if doc == nil {
			return
		}
		for _, c := range doc.List {
			dir, ok := parseDirective(c, fset)
			if !ok {
				continue
			}
			docComments[c] = true
			if _, known := KnownKeys[dir.Key]; !known {
				d.Unknown = append(d.Unknown, dir)
				continue
			}
			if onType && dir.Key != typeDirective {
				d.Misplaced = append(d.Misplaced, dir)
				continue
			}
			if *into == nil {
				*into = map[string][]Directive{}
			}
			(*into)[key] = append((*into)[key], dir)
		}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			declKeyed(decl.Doc, &d.Funcs, funcKeyOfDecl(pkgPath, decl), false)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil && len(decl.Specs) == 1 {
					doc = decl.Doc
				}
				declKeyed(doc, &d.Types, pkgPath+"."+ts.Name.Name, true)
			}
		}
	}
	// Every remaining directive comment is a statement-level escape.
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if docComments[c] {
				continue
			}
			dir, ok := parseDirective(c, fset)
			if !ok {
				continue
			}
			if _, known := KnownKeys[dir.Key]; !known {
				d.Unknown = append(d.Unknown, dir)
				continue
			}
			lines := d.escapes[dir.Pos.Filename]
			if lines == nil {
				lines = map[int][]string{}
				d.escapes[dir.Pos.Filename] = lines
			}
			lines[dir.Pos.Line] = append(lines[dir.Pos.Line], dir.Key)
		}
	}
}

// funcKeyOfDecl derives the symbolic key of a declared func from its AST:
// "pkgpath.Name" or "pkgpath.Recv.Name", pointer and type parameters
// stripped, matching funcKey's output for the corresponding types.Func.
func funcKeyOfDecl(pkgPath string, decl *ast.FuncDecl) string {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return pkgPath + "." + decl.Name.Name
	}
	t := decl.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.ParenExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return pkgPath + "." + tt.Name + "." + decl.Name.Name
		default:
			return pkgPath + "." + decl.Name.Name
		}
	}
}

// ScanModule walks every .go file under root (the module root, containing
// go.mod) with a parse-only pass and builds the cross-package Registry.
// Test files are included — an annotation on a test helper is legal — but
// vendor/ and testdata/ trees are skipped: testdata fixtures deliberately
// hold violations (and one typo'd directive) that must not leak into the
// real module's registry. It also returns every unknown-key directive found
// outside those trees, for the meta-check.
func ScanModule(root string) (*Registry, []Directive, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	reg := &Registry{Funcs: map[string][]string{}, Types: map[string][]string{}}
	var unknown []Directive
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			name := de.Name()
			if name == "testdata" || name == "vendor" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkgPath := modPath
		if rel != "." {
			pkgPath = modPath + "/" + filepath.ToSlash(rel)
		}
		d := &PkgDirectives{
			Funcs:   map[string][]Directive{},
			Types:   map[string][]Directive{},
			escapes: map[string]map[int][]string{},
		}
		scanFile(fset, pkgPath, f, d)
		for key, ds := range d.Funcs {
			for _, dir := range ds {
				reg.Funcs[key] = append(reg.Funcs[key], dir.Key)
			}
		}
		for key, ds := range d.Types {
			for _, dir := range ds {
				reg.Types[key] = append(reg.Types[key], dir.Key)
			}
		}
		unknown = append(unknown, d.Unknown...)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return reg, unknown, nil
}

// ModulePath reads the module path of the module rooted at root. Drivers
// use it to tell in-module packages apart from dependencies.
func ModulePath(root string) (string, error) {
	return modulePath(filepath.Join(root, "go.mod"))
}

// modulePath reads the module path from the first `module` line of go.mod.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(p), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

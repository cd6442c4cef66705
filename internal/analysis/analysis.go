package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named pass. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so the suite could be rehosted on
// a multichecker without touching the pass bodies.
type Analyzer struct {
	// Name identifies the analyzer in findings and documentation.
	Name string
	// Doc is the one-line contract the analyzer enforces.
	Doc string
	// Run reports the package's findings through the pass.
	Run func(*Pass)
}

// Analyzers is the full suite, in the order gamelensvet runs it.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		BorrowCheckAnalyzer,
		NoAllocAnalyzer,
		WallclockAnalyzer,
		DetJSONAnalyzer,
		SPSCAffinityAnalyzer,
	}
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one (analyzer, package) run.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Pkg
	// Reg is the module-wide directive registry (cross-package annotation
	// lookups go through it; the per-package escapes live on Pkg.Dirs).
	Reg   *Registry
	diags *[]Diagnostic
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Escaped reports whether a directive with the given key sits on the line
// of pos or on the line immediately above it — the two escape-comment
// placements (trailing and leading).
func (p *Pass) Escaped(pos token.Pos, key string) bool {
	return p.Pkg.Dirs.escapedAt(p.Pkg.Fset.Position(pos), key)
}

// Run executes the analyzers over every package and returns the findings
// sorted by position. Unknown directive keys anywhere in the packages'
// sources (test files included) are findings too — a typo'd directive must
// fail the gate, not be silently ignored — and so is a function-level key on
// a type declaration.
func Run(pkgs []*Pkg, reg *Registry, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, d := range pkg.Dirs.Unknown {
			diags = append(diags, Diagnostic{
				Analyzer: "directives",
				Pos:      d.Pos,
				Message: fmt.Sprintf("unknown gamelens directive %q (known keys: %s)",
					d.Key, knownKeyList()),
			})
		}
		for _, d := range pkg.Dirs.Misplaced {
			diags = append(diags, Diagnostic{
				Analyzer: "directives",
				Pos:      d.Pos,
				Message: fmt.Sprintf("gamelens directive %q does not apply to a type declaration (only %s does)",
					d.Key, typeDirective),
			})
		}
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Reg: reg, diags: &diags}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// calleeOf resolves a call expression to the invoked *types.Func (static
// calls and interface-method calls alike), or nil for builtins, conversions
// and indirect calls through function values.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			obj = info.Uses[id]
		}
	case *ast.IndexListExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			obj = info.Uses[id]
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// funcKey is the symbolic, package-qualified name of a function or method —
// "path.Name" or "path.Recv.Name" with pointers stripped — matching the key
// the directive scanner derives from source, so an annotation applied in
// one package is visible at call sites in another even though the two sides
// hold distinct types.Object instances (source-checked vs imported).
func funcKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	// Origin folds generic instantiations back onto the declared method.
	fn = fn.Origin()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		switch t := t.(type) {
		case *types.Named:
			return fn.Pkg().Path() + "." + t.Obj().Name() + "." + fn.Name()
		case *types.Interface:
			// Unnamed interface receiver; fall through to the plain key.
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// typeKey is the symbolic name of a named type, with pointers stripped;
// "" for everything unnamed.
func typeKey(t types.Type) string {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
			continue
		case *types.Named:
			obj := tt.Obj()
			if obj.Pkg() == nil {
				return "" // error, comparable, ...
			}
			return obj.Pkg().Path() + "." + obj.Name()
		default:
			return ""
		}
	}
}

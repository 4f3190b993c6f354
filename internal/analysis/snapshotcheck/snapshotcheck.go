// Package snapshotcheck enforces the platform's snapshot-immutability
// invariant: once an engine snapshot is published through an
// atomic.Pointer swap, nothing may write to it — a single
// post-publication mutation races every reader of the old pointer.
//
// Concretely, fields of textindex.Frozen, textindex.Segmented and
// core.Engine may only be assigned inside the construction paths of
// their own package (everything reachable from Freeze/NewSegmented/
// WithDocs/WithoutDocs for the text index, Builder.Build/
// Builder.ApplyDelta for the engine). Any field write outside the
// defining package, or inside it but outside the construction
// call graph, is reported.
package snapshotcheck

import (
	"go/ast"
	"go/token"

	"hive/internal/analysis"
)

// A protected set names the immutable types of one package and the
// construction entry points whose (syntactic, in-package) call graph is
// allowed to write their fields.
type protectedSet struct {
	pkgSuffix string
	types     map[string]bool
	seeds     []string
}

var protectedSets = []protectedSet{
	{
		pkgSuffix: "internal/textindex",
		types:     map[string]bool{"Frozen": true, "Segmented": true},
		seeds:     []string{"Freeze", "NewSegmented", "WithDocs", "WithoutDocs"},
	},
	{
		pkgSuffix: "internal/core",
		types:     map[string]bool{"Engine": true},
		seeds:     []string{"Build", "ApplyDelta"},
	},
}

var Analyzer = &analysis.Analyzer{
	Name: "snapshotcheck",
	Doc: "flag writes to published snapshot types (textindex.Frozen/Segmented, core.Engine) " +
		"outside their construction whitelist",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// When analyzing the defining package itself, compute the set of
	// top-level declarations reachable from the construction seeds;
	// writes there are the legitimate build phase. Reachability is
	// syntactic over declaration names (calls and bare references, so
	// task tables like `var buildTasks = []buildTask{...}` whose
	// closures run under Build stay whitelisted).
	reachable := map[string]map[string]bool{} // pkgSuffix -> decl name -> reachable
	for _, ps := range protectedSets {
		if analysis.PkgPathHasSuffix(pass.Pkg, ps.pkgSuffix) {
			reachable[ps.pkgSuffix] = reachableDecls(pass.Files, ps.seeds)
		}
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			name, body := declName(decl)
			if body == nil {
				continue
			}
			ast.Inspect(body, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range st.Lhs {
						checkWrite(pass, reachable, name, lhs)
					}
				case *ast.IncDecStmt:
					checkWrite(pass, reachable, name, st.X)
				}
				return true
			})
		}
	}
	return nil
}

// declName returns the name and inspectable body of a top-level
// declaration: the function name for funcs/methods, the first bound
// name for package-level var/const declarations (whose initializer
// closures are attributed to that name).
func declName(decl ast.Decl) (string, ast.Node) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Body == nil {
			return d.Name.Name, nil
		}
		return d.Name.Name, d.Body
	case *ast.GenDecl:
		if d.Tok != token.VAR {
			return "", nil
		}
		for _, spec := range d.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if ok && len(vs.Names) > 0 && len(vs.Values) > 0 {
				return vs.Names[0].Name, d
			}
		}
	}
	return "", nil
}

// checkWrite reports lhs if it writes (directly, or through index and
// selector chains below) a field of a protected type from outside the
// construction whitelist: ne.ctx.over[u] = v writes field ctx.
func checkWrite(pass *analysis.Pass, reachable map[string]map[string]bool, enclosing string, lhs ast.Expr) {
	for {
		switch x := lhs.(type) {
		case *ast.IndexExpr:
			lhs = x.X
		case *ast.ParenExpr:
			lhs = x.X
		case *ast.SelectorExpr:
			if reportProtected(pass, reachable, enclosing, x) {
				return
			}
			lhs = x.X
		default:
			return
		}
	}
}

// reportProtected reports sel if it selects a field of a protected type
// outside the construction whitelist. It returns whether sel's operand
// is of a protected type, reported or whitelisted.
func reportProtected(pass *analysis.Pass, reachable map[string]map[string]bool, enclosing string, sel *ast.SelectorExpr) bool {
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	named := analysis.Deref(tv.Type)
	if named == nil || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	for _, ps := range protectedSets {
		if !ps.types[named.Obj().Name()] || !analysis.PkgPathHasSuffix(named.Obj().Pkg(), ps.pkgSuffix) {
			continue
		}
		if r, inDefiningPkg := reachable[ps.pkgSuffix]; inDefiningPkg && r[enclosing] {
			return true // construction path
		}
		pass.Reportf(sel.Pos(),
			"write to %s.%s.%s outside the construction whitelist: snapshots are immutable once published",
			ps.pkgSuffix, named.Obj().Name(), sel.Sel.Name)
		return true
	}
	return false
}

// reachableDecls computes the top-level declarations reachable from the
// seed names by following identifier references (an over-approximation:
// any mention of a declaration's name marks it reachable, which errs
// toward permitting construction helpers rather than crying wolf).
func reachableDecls(files []*ast.File, seeds []string) map[string]bool {
	refs := map[string]map[string]bool{} // decl name -> referenced idents
	for _, file := range files {
		for _, decl := range file.Decls {
			name, body := declName(decl)
			if name == "" || body == nil {
				continue
			}
			set := refs[name]
			if set == nil {
				set = map[string]bool{}
				refs[name] = set
			}
			ast.Inspect(body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					set[id.Name] = true
				}
				return true
			})
		}
	}
	reach := map[string]bool{}
	for _, s := range seeds {
		reach[s] = true
	}
	for changed := true; changed; {
		changed = false
		for name := range refs {
			if reach[name] {
				continue
			}
			for from := range reach {
				if refs[from][name] {
					reach[name] = true
					changed = true
					break
				}
			}
		}
	}
	return reach
}

// Package noclosuresched defines an analyzer that forbids closure-literal
// scheduling on the packet hot path.
//
// PR 4 made the packet hot path allocation-free by replacing every
// per-event closure with the engine's pre-bound forms: AtCall/AfterCall
// take a long-lived Handler plus a pointer-sized arg, so steady-state
// scheduling never touches the heap. A func-literal argument to
// eventsim.Engine.At or After silently reintroduces one allocation per
// event — invisible in review, visible only when the ≤2-allocs CI gate or
// a benchmark regresses. This analyzer flags the closure at the call site
// instead.
//
// Only the hot-path packages (internal/sim, internal/ndp,
// internal/rotorlb, internal/eventsim) are checked; genuinely cold paths
// inside them can carry `//operalint:allow closuresched -- reason`.
package noclosuresched

import (
	"go/ast"

	"github.com/opera-net/opera/internal/lint/analysis"
	"github.com/opera-net/opera/internal/lint/lintutil"
)

// hotPathPackages are the import-path bases where per-event allocations
// are on the packet-forwarding critical path.
var hotPathPackages = []string{"sim", "ndp", "rotorlb", "eventsim", "freelist", "idtable", "obs"}

var Analyzer = &analysis.Analyzer{
	Name: "noclosuresched",
	Doc: "forbid closure-literal eventsim scheduling in hot-path packages\n\n" +
		"Flags func-literal arguments to eventsim.Engine.At/After in the packet\n" +
		"hot path; use the allocation-free AtCall/AfterCall pre-bound Handler\n" +
		"forms, or annotate a cold path with //operalint:allow closuresched.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.PackageIs(pass.Pkg, hotPathPackages...) {
		return nil, nil
	}
	allow := lintutil.NewAllowlist(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := lintutil.IsEngineSchedule(pass.TypesInfo, call)
			if !ok || (name != "At" && name != "After") {
				return true
			}
			for _, arg := range call.Args {
				if _, isLit := ast.Unparen(arg).(*ast.FuncLit); !isLit {
					continue
				}
				if allow.Allows(call.Pos(), "closuresched") {
					continue
				}
				pass.Reportf(call.Pos(),
					"closure literal scheduled via Engine.%s allocates per event on the hot path; use the pre-bound Engine.%sCall(t, Handler, arg) form, or annotate a cold path with //operalint:allow closuresched", name, name)
			}
			return true
		})
	}
	return nil, nil
}

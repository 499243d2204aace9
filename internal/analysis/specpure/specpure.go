// Package specpure defines the EFFECT001-EFFECT004 analyzers of the
// speculation purity contract: everything a speculative kernel executes
// must be squashable. A misspeculated chunk is rolled back by discarding
// its buffered state and re-executing — so any effect that escapes the
// speculation buffer (I/O, channel and lock traffic, helper-mediated
// writes to captured memory) or that computes differently on re-execution
// (time, rand) silently breaks the paper's correctness contract.
//
//	EFFECT001  irreversible I/O or syscall reached from a kernel
//	EFFECT002  channel/mutex/WaitGroup operation inside a kernel
//	EFFECT003  captured shared memory mutated via a called helper —
//	           the interprocedural hole in SPEC001's lexical check
//	EFFECT004  non-idempotent call (rand, time) feeding speculative work
//
// Unlike specaccess, which inspects the kernel closure lexically,
// specpure joins the interprocedural effect summaries of
// internal/analysis/effects at every call site in the kernel, so a write
// hidden two helpers deep is charged to the kernel that reaches it.
// Calls into the mutls runtime itself (Thread accessors, the driver
// packages) are exempt: they are the sanctioned way to touch shared
// state, and their internal locking is rollback-aware.
package specpure

import (
	"errors"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/effects"
	"repro/internal/analysis/kernelutil"
)

// Diagnostic codes.
const (
	CodeIO      = "EFFECT001"
	CodeSync    = "EFFECT002"
	CodeHelper  = "EFFECT003"
	CodeNonIdem = "EFFECT004"
)

var Analyzer = &analysis.Analyzer{
	Name:       "specpure",
	Doc:        "flag impure calls reached from speculative kernels via interprocedural effect summaries: irreversible I/O, channel/lock traffic, helper-mediated captured-memory writes, and non-idempotent (time/rand) calls that break re-execution",
	Codes:      []string{CodeIO, CodeSync, CodeHelper, CodeNonIdem},
	NeedsInter: true,
	Run:        run,
}

// exemptPkgs are the runtime's own packages: their entry points are the
// sanctioned speculation API (Thread accessors, drivers, stats), with
// rollback-aware internals. internal/bench and the examples are NOT
// exempt — their helpers are exactly the user code this analyzer audits.
var exemptPkgs = map[string]bool{
	"repro/mutls":                true,
	"repro/mutls/pool":           true,
	"repro/internal/core":        true,
	"repro/internal/gbuf":        true,
	"repro/internal/lbuf":        true,
	"repro/internal/mem":         true,
	"repro/internal/vclock":      true,
	"repro/internal/predict":     true,
	"repro/internal/stats":       true,
	"repro/internal/faultinject": true,
	"repro/internal/harness":     true,
}

func run(pass *analysis.Pass) error {
	idx, _ := pass.Inter.(*effects.Index)
	if idx == nil {
		return errors.New("no effect index in Pass.Inter (run through the driver)")
	}
	for _, k := range kernelutil.Find(pass) {
		checkKernel(pass, idx, k)
	}
	return nil
}

func checkKernel(pass *analysis.Pass, idx *effects.Index, k kernelutil.Kernel) {
	info := pass.TypesInfo
	lit := k.Lit

	// captured resolves an expression to the captured variable at its
	// base (x, x.f, x[i], *x, &x), if any.
	captured := func(e ast.Expr) *types.Var {
		for {
			switch v := ast.Unparen(e).(type) {
			case *ast.Ident:
				return kernelutil.CapturedVar(info, lit, v)
			case *ast.SelectorExpr:
				e = v.X
			case *ast.IndexExpr:
				e = v.X
			case *ast.StarExpr:
				e = v.X
			case *ast.UnaryExpr:
				if v.Op != token.AND {
					return nil
				}
				e = v.X
			case *ast.SliceExpr:
				e = v.X
			default:
				return nil
			}
		}
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A nested closure still executes inside the region (indirect
			// kernels are found separately but walking twice only
			// re-reports at the same positions, which dedup below avoids
			// by reporting at call sites only once per Inspect).
			return true
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), CodeSync,
				"speculative kernel sends on a channel; the send is visible before the speculation commits and is not undone on rollback — move channel traffic after the join")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), CodeSync,
					"speculative kernel receives from a channel; a blocked speculative thread deadlocks its own squash and the receive consumes a value that re-execution needs again")
			}
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), CodeSync,
				"speculative kernel executes select; channel traffic inside a speculation is not undone on rollback")
			return false
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), CodeSync,
				"speculative kernel spawns a goroutine; the goroutine outlives a squash and its work escapes rollback")
		case *ast.CallExpr:
			checkCall(pass, idx, info, lit, n, captured)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, idx *effects.Index, info *types.Info,
	lit *ast.FuncLit, call *ast.CallExpr, captured func(ast.Expr) *types.Var) {

	// close(ch) is channel lifecycle inside the speculation.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "close" {
				pass.Reportf(call.Pos(), CodeSync,
					"speculative kernel closes a channel; the close is observable before commit and re-execution double-closes")
			}
			return
		}
	}

	fn := kernelutil.CalleeFunc(info, call)
	if fn == nil {
		return // dynamic call: the effect index's trust boundary
	}
	if exemptCallee(fn) {
		return
	}
	sum := idx.Of(fn)
	name := callLabel(call, fn)

	if sum.Effects&effects.DoesIO != 0 {
		pass.Reportf(call.Pos(), CodeIO,
			"speculative kernel calls %s, which performs irreversible I/O (%s); a squashed chunk re-executes the call and the first attempt cannot be undone — buffer the output and emit it after the join", name, via(sum, effects.DoesIO, name))
	}
	if sum.Effects&effects.Blocks != 0 {
		pass.Reportf(call.Pos(), CodeSync,
			"speculative kernel calls %s, which blocks on channel/lock traffic (%s); a speculative thread that blocks can deadlock against its own squash and locks are not released on rollback", name, via(sum, effects.Blocks, name))
	}
	if sum.Effects&effects.NonIdempotent != 0 {
		pass.Reportf(call.Pos(), CodeNonIdem,
			"speculative kernel calls %s, which is non-idempotent (%s); a squashed chunk re-executes with a different result, so the committed state depends on rollback timing — hoist the value before the fork", name, via(sum, effects.NonIdempotent, name))
	}

	// EFFECT003: the helper mutates memory the kernel shares with the
	// sequential world — package-level state, or captured memory reached
	// through an argument or the method receiver.
	if sum.Effects&effects.WritesShared != 0 {
		pass.Reportf(call.Pos(), CodeHelper,
			"speculative kernel calls %s, which writes package-level shared state (%s); the write bypasses the speculation buffer — not undone on rollback, races with re-execution", name, via(sum, effects.WritesShared, name))
	}
	if sum.ParamWrites != 0 {
		for i, arg := range call.Args {
			if i >= 64 || sum.ParamWrites&(1<<i) == 0 {
				continue
			}
			if v := captured(arg); v != nil {
				pass.Reportf(call.Pos(), CodeHelper,
					"speculative kernel passes captured %q to %s, which writes through that parameter; the helper's write bypasses the speculation buffer (not undone on rollback, races with re-execution) — route it through the Thread accessors or move the call after the join", v.Name(), name)
			}
		}
	}
	if sum.RecvWrite {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if v := captured(sel.X); v != nil {
				pass.Reportf(call.Pos(), CodeHelper,
					"speculative kernel calls %s on captured %q, and the method writes through its receiver; the mutation bypasses the speculation buffer — not undone on rollback", name, v.Name())
			}
		}
	}
}

// Exempt reports the runtime's own API (any method on *Thread, every
// function in the runtime packages): the sanctioned path to shared
// state, with rollback-aware internals. Beyond skipping direct calls in
// checkCall, the driver installs it as the effect index's propagation
// stop (effects.WithExempt) so a helper that merely polls CheckPoint —
// which may sleep inside the fault injector — does not inherit Blocks.
func Exempt(fn *types.Func) bool {
	return exemptCallee(fn)
}

func exemptCallee(fn *types.Func) bool {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if kernelutil.IsThreadPtr(sig.Recv().Type()) {
			return true
		}
	}
	return fn.Pkg() != nil && exemptPkgs[fn.Pkg().Path()]
}

// via renders the summary's call chain for an effect, suppressing the
// degenerate "x via x" case.
func via(sum effects.Summary, e effects.Effect, name string) string {
	chain := sum.ViaFor(e)
	if chain == "" || chain == name {
		return "directly"
	}
	return "via " + chain
}

// callLabel renders the call for diagnostics: "pkg.Func" or "recv.Method".
func callLabel(call *ast.CallExpr, fn *types.Func) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if x, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			return x.Name + "." + sel.Sel.Name
		}
		return sel.Sel.Name
	}
	return fn.Name()
}

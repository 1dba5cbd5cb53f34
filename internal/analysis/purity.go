package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PredictPurity enforces the core contract that Predict is a pure
// table lookup: predicting must never train or otherwise mutate
// predictor state, because replay equivalence (offline run vs. served
// PredictBatch/UpdateBatch) depends on Predict being repeatable.
// internal/core/purity_test.go probes the same property dynamically
// on sampled traces; this rule proves it for every code path.
//
// Inside any method named Predict or PredictConfident in
// internal/core the rule flags writes to storage reachable from the
// receiver: assignments through receiver fields, map entries or slice
// elements (including via local aliases like e := &p.l1[i]), append/
// copy/delete/clear on receiver-reachable state, and calls to
// mutating methods (Update, Reset) on receiver-rooted values.
//
// Delayed is the one documented exception: its Predict drains the
// pending-update queue (DESIGN.md), so the Delayed receiver is
// allowlisted.
var PredictPurity = &Analyzer{
	ID:  "predict-purity",
	Doc: "Predict methods in internal/core must not mutate predictor state",
	Run: runPredictPurity,
}

// predictPurityExempt lists receiver types whose Predict is
// documented to mutate (the pipeline-delay model applies queued
// updates at prediction time).
var predictPurityExempt = map[string]bool{"Delayed": true}

var mutatorMethods = map[string]bool{
	"Update": true, "Reset": true,
}

func runPredictPurity(pass *Pass) {
	if !strings.HasSuffix(pass.Pkg.Path, "/internal/core") {
		return
	}
	want := map[string]bool{"Predict": true, "PredictConfident": true}
	methodsNamed(pass.Pkg, want, func(decl *ast.FuncDecl, recvType string) {
		if predictPurityExempt[recvType] {
			return
		}
		checkPredictBody(pass, decl)
	})
}

func checkPredictBody(pass *Pass, decl *ast.FuncDecl) {
	recv := recvObject(pass.Pkg.Info, decl)
	if recv == nil {
		return // no receiver name — nothing reachable
	}
	info := pass.Pkg.Info

	// tainted holds objects that alias receiver-reachable storage:
	// the receiver itself plus locals bound to pointers, slices or
	// maps derived from it (e := &p.l1[i], t := p.table, ...).
	tainted := map[types.Object]bool{recv: true}

	rootedInRecv := func(e ast.Expr) bool {
		id := rootIdent(e)
		return id != nil && tainted[info.Uses[id]]
	}

	// aliasing reports whether an expression yields a view into
	// receiver storage that a later write could go through.
	aliasing := func(e ast.Expr) bool {
		if !rootedInRecv(e) {
			return false
		}
		tv, ok := info.Types[e]
		if !ok {
			return false
		}
		switch tv.Type.Underlying().(type) {
		case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
			return true
		}
		return false
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if isBlank(lhs) {
					continue
				}
				// Rebinding a local identifier (even the receiver
				// variable itself) mutates nothing shared; a write
				// counts only when the path traverses receiver
				// storage (field, element, or dereference).
				if _, plain := ast.Unparen(lhs).(*ast.Ident); plain {
					continue
				}
				if rootedInRecv(lhs) {
					pass.Reportf(lhs.Pos(), "%s.%s writes receiver state via %s",
						recvTypeName(decl), decl.Name.Name, types.ExprString(lhs))
				}
			}
			// Propagate taint: locals initialized from receiver-
			// reachable references alias the same storage.
			if st.Tok == token.DEFINE {
				for i, lhs := range st.Lhs {
					if i >= len(st.Rhs) {
						break
					}
					if id, ok := lhs.(*ast.Ident); ok && aliasing(st.Rhs[i]) {
						if obj := info.Defs[id]; obj != nil {
							tainted[obj] = true
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if rootedInRecv(st.X) {
				pass.Reportf(st.Pos(), "%s.%s mutates receiver state via %s%s",
					recvTypeName(decl), decl.Name.Name, types.ExprString(st.X), st.Tok)
			}
		case *ast.CallExpr:
			checkPredictCall(pass, decl, st, rootedInRecv)
		}
		return true
	})
}

func checkPredictCall(pass *Pass, decl *ast.FuncDecl, call *ast.CallExpr, rootedInRecv func(ast.Expr) bool) {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		// Built-ins that mutate their first argument in place.
		switch fn.Name {
		case "append", "copy", "delete", "clear":
			if len(call.Args) > 0 && rootedInRecv(call.Args[0]) {
				pass.Reportf(call.Pos(), "%s.%s calls %s on receiver state",
					recvTypeName(decl), decl.Name.Name, fn.Name)
			}
		}
	case *ast.SelectorExpr:
		if mutatorMethods[fn.Sel.Name] && rootedInRecv(fn.X) {
			pass.Reportf(call.Pos(), "%s.%s calls mutating method %s on receiver state",
				recvTypeName(decl), decl.Name.Name, fn.Sel.Name)
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

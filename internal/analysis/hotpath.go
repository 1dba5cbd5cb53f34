package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotPathAlloc keeps the per-event hot path allocation-free. A
// predictor serving millions of events per second cannot afford fmt's
// reflection-driven formatting, reflect itself, interface boxing, or
// defer bookkeeping inside the functions that run once per trace
// event.
//
// Scope:
//
//   - internal/core: bodies of the per-event methods Predict,
//     PredictConfident, Update, L2Index and RunBatch, the top-level
//     replay loops RunBatch, Hits, runEach (the generic per-event
//     loop behind every predictor without a concrete batch loop,
//     served ones included) and Run (runEach over a whole trace, the
//     per-event reference the tests compare against), the mask
//     readers Hit and UnionHits, the top-level step helpers (lastValueStep,
//     strideStep, twoDeltaStep, fcmStep, dfcmStep) that Update and
//     RunBatch share, and the delayed-update kernel's helpers
//     (delayedSteps, drop, pushAll) that Delayed.RunBatch runs once
//     per chunk;
//   - internal/hash: FSR's Update and Shifts32 methods, and the Fold,
//     Fold32 and Mask helpers (they run once per event, or once per
//     chunk, inside FCM/DFCM updates);
//   - internal/engine: every top-level function named replay* — the
//     streaming engine's inner loop, which runs every predictor over
//     each fed slice and must stay allocation-free to hit the
//     engine's ~0 allocs/op budget;
//   - internal/serve: the per-frame codec — every top-level append*
//     and decode* function plus the frame builders (beginFrame,
//     endFrame, ResponseFrame, growBody), the frame readers
//     (readHeader, readPayload, readResponseFrame, ReadRequestFrame)
//     and writeReply, the FrontEnd's frame writer that answers every
//     vpserve and vprouter request. These run once per request frame
//     on buffers the connection reuses; the serve batch path's 0
//     allocs/op budget dies the day one of them formats an error
//     with fmt;
//   - internal/cluster: the Router.forward method — the proxy's
//     per-frame backend round trip, same budget;
//   - internal/autotune: the mirror-enqueue path — the Tuner's Mirror
//     and sampled methods, which run inline under every shard lock
//     once per training batch and must shed, not allocate, when the
//     tuner falls behind.
//
// Cold paths — constructors, Name, SizeBits, Stats — may use fmt
// freely; they are out of scope by construction.
var HotPathAlloc = &Analyzer{
	ID:  "hot-path-alloc",
	Doc: "per-event predictor and hash paths must not use fmt/reflect, box interfaces, or defer",
	Run: runHotPathAlloc,
}

// coreHotMethods names internal/core's per-event methods, the
// top-level replay loops and step helpers, and the helpers of
// Delayed's fused delayed-update kernel.
var coreHotMethods = map[string]bool{
	"Predict": true, "PredictConfident": true, "Update": true,
	"L2Index": true, "RunBatch": true, "Hits": true, "Hit": true, "UnionHits": true, "runEach": true, "lastValueStep": true, "strideStep": true,
	"twoDeltaStep": true, "fcmStep": true, "dfcmStep": true,
	"delayedSteps": true, "drop": true, "pushAll": true,
}

// serveHotFuncs are internal/serve's fixed-name per-frame codec
// functions; the append*/decode* families are matched by prefix.
var serveHotFuncs = map[string]bool{
	"beginFrame": true, "endFrame": true, "ResponseFrame": true, "growBody": true,
	"readHeader": true, "readPayload": true, "readResponseFrame": true, "ReadRequestFrame": true,
	"writeReply": true,
}

func runHotPathAlloc(pass *Pass) {
	switch {
	case strings.HasSuffix(pass.Pkg.Path, "/internal/core"):
		methodsNamed(pass.Pkg, coreHotMethods, func(decl *ast.FuncDecl, recvType string) {
			checkHotBody(pass, decl.Name.Name, decl.Body)
		})
		topLevelFuncs(pass, func(name string) bool {
			return name == "Run" || coreHotMethods[name]
		})
	case strings.HasSuffix(pass.Pkg.Path, "/internal/hash"):
		methodsNamed(pass.Pkg, map[string]bool{"Update": true, "Shifts32": true}, func(decl *ast.FuncDecl, recvType string) {
			checkHotBody(pass, decl.Name.Name, decl.Body)
		})
		topLevelFuncs(pass, func(name string) bool {
			return name == "Fold" || name == "Fold32" || name == "Mask"
		})
	case strings.HasSuffix(pass.Pkg.Path, "/internal/engine"):
		topLevelFuncs(pass, func(name string) bool {
			return strings.HasPrefix(name, "replay")
		})
	case strings.HasSuffix(pass.Pkg.Path, "/internal/serve"):
		topLevelFuncs(pass, func(name string) bool {
			return serveHotFuncs[name] ||
				strings.HasPrefix(name, "append") ||
				strings.HasPrefix(name, "decode")
		})
	case strings.HasSuffix(pass.Pkg.Path, "/internal/cluster"):
		methodsNamed(pass.Pkg, map[string]bool{"forward": true}, func(decl *ast.FuncDecl, recvType string) {
			checkHotBody(pass, decl.Name.Name, decl.Body)
		})
	case strings.HasSuffix(pass.Pkg.Path, "/internal/autotune"):
		methodsNamed(pass.Pkg, map[string]bool{"Mirror": true, "sampled": true}, func(decl *ast.FuncDecl, recvType string) {
			checkHotBody(pass, decl.Name.Name, decl.Body)
		})
	}
}

// topLevelFuncs checks the bodies of non-method functions whose name
// matches.
func topLevelFuncs(pass *Pass, match func(string) bool) {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Recv != nil || decl.Body == nil {
				continue
			}
			if match(decl.Name.Name) {
				checkHotBody(pass, decl.Name.Name, decl.Body)
			}
		}
	}
}

func checkHotBody(pass *Pass, fname string, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			switch pkgOf(info, x) {
			case "fmt":
				pass.Reportf(x.Pos(), "fmt.%s in hot path %s allocates and reflects; format off the per-event path", x.Sel.Name, fname)
			case "reflect":
				pass.Reportf(x.Pos(), "reflect.%s in hot path %s", x.Sel.Name, fname)
			}
		case *ast.DeferStmt:
			pass.Reportf(x.Pos(), "defer in hot path %s adds per-event overhead; restructure the cleanup", fname)
		case *ast.GoStmt:
			pass.Reportf(x.Pos(), "goroutine launch in hot path %s", fname)
		case *ast.CallExpr:
			checkInterfaceConversion(pass, fname, x)
		}
		return true
	})
}

// checkInterfaceConversion flags explicit conversions of concrete
// values to interface types — each one heap-allocates the boxed value
// on the per-event path.
func checkInterfaceConversion(pass *Pass, fname string, call *ast.CallExpr) {
	info := pass.Pkg.Info
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	if !types.IsInterface(tv.Type) {
		return
	}
	if argTV, ok := info.Types[call.Args[0]]; ok && !types.IsInterface(argTV.Type) {
		pass.Reportf(call.Pos(), "conversion to interface %s boxes its operand in hot path %s",
			types.ExprString(call.Fun), fname)
	}
}

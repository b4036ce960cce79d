package lint

import (
	"go/ast"
	"go/types"
)

// RoPurity checks that the read-only capsule tier is free of persistent
// effects. A function roots the check when it calls capsule.Ctx.ReadOnly
// (entering the RO tier, whose capsule boundaries skip the persist).
// From each root the analyzer walks the intra-package call graph and flags
// every reachable persistent-effect call — pmem.Port writes, flushes
// and fences, recoverable/writable-CAS operations, packed-pool
// mutations — unless the call sits under a statement annotated
// //persist:ro-fallback, the documented demotion point where an RO
// capsule deliberately pays the persist (checked-mode Ctx panics there
// at run time only if the capsule forgot to demote; this analyzer
// catches the class at vet time, the PR 5 checked-mode panic).
//
// Knowledge of which cross-package calls persist is a builtin table
// (each package is analyzed on its own, so directives
// cannot travel across packages); the table names the repository's
// effectful surfaces explicitly rather than guessing from signatures.
var RoPurity = &Analyzer{
	Name: "ropurity",
	Doc:  "flags persistent effects reachable from read-only-tier capsule code",
	Run:  runRoPurity,
}

func runRoPurity(pass *Pass) error {
	decls := funcDecls(pass)

	// Roots: RO-tier entry points.
	rootName := make(map[types.Object]string)
	for obj, fd := range decls {
		entered := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if entered {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok &&
				isMethodOn(pass.TypesInfo, call, "capsule", "Ctx", "ReadOnly") {
				entered = true
				return false
			}
			return true
		})
		if entered {
			rootName[obj] = obj.Name()
		}
	}
	if len(rootName) == 0 {
		return nil
	}

	// Intra-package call edges among declared functions.
	edges := make(map[types.Object][]types.Object)
	for obj, fd := range decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if to := calleeObj(pass.TypesInfo, call); to != nil {
				if _, declared := decls[to]; declared {
					edges[obj] = append(edges[obj], to)
				}
			}
			return true
		})
	}

	// BFS: reachable[f] names the first root that reaches f.
	reachable := make(map[types.Object]string)
	var queue []types.Object
	for obj, name := range rootName {
		reachable[obj] = name
		queue = append(queue, obj)
	}
	for len(queue) > 0 {
		from := queue[0]
		queue = queue[1:]
		for _, to := range edges[from] {
			if _, seen := reachable[to]; !seen {
				reachable[to] = reachable[from]
				queue = append(queue, to)
			}
		}
	}

	for obj, fd := range decls {
		root, ok := reachable[obj]
		if !ok {
			continue
		}
		walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			effect := persistentEffect(pass.TypesInfo, call)
			if effect == "" {
				return true
			}
			// The documented demotion path: an enclosing statement (or
			// the call's own statement) carries //persist:ro-fallback.
			for _, anc := range stack {
				if _, isStmt := anc.(ast.Stmt); isStmt && c2dir(pass, anc) {
					return true
				}
			}
			if c2dir(pass, call) {
				return true
			}
			pass.Reportf(call.Pos(),
				"persistent effect %s is reachable from read-only-tier function %s: RO capsules skip the boundary persist, so this write can be lost at a crash; demote at a //persist:ro-fallback point or lift the effect out of the RO tier", effect, root)
			return true
		})
	}
	return nil
}

func c2dir(pass *Pass, n ast.Node) bool {
	return pass.NodeDirective(n, "persist:ro-fallback")
}

// persistentEffect names the persistent effect call performs, or "" if
// it has none. This is the builtin cross-package effect table.
func persistentEffect(info *types.Info, call *ast.CallExpr) string {
	switch {
	case isPortMethod(info, call, "Write", "CAS", "Flush", "FlushRange", "FlushAddrs", "FlushFence", "PersistEpoch"):
		return "pmem.Port." + callee(info, call).Name()
	case isMethodOn(info, call, "rcas", "", "Cas", "CasAnon"):
		return "rcas recoverable CAS (" + callee(info, call).Name() + ")"
	case isPkgFunc(info, call, "rcas", "InitCell"):
		return "rcas.InitCell"
	case isMethodOn(info, call, "wcas", "Handle", "Write", "CAS"):
		return "wcas.Handle." + callee(info, call).Name()
	case isMethodOn(info, call, "qnode", "PackedPool", "Alloc", "Retire", "Commit", "FlushBatch"):
		return "qnode.PackedPool." + callee(info, call).Name()
	case isMethodOn(info, call, "qnode", "Arena", "Retire"):
		return "qnode.Arena.Retire"
	}
	return ""
}

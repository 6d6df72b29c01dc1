package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ---- atomic-access facts (shared by atomicmix and padlayout) ----

// fieldKey identifies one atomically-accessed storage location class: a
// struct field or package-level variable, plus how many index steps lie
// between the variable and the accessed word (0 for a scalar field, 1
// for elements of a slice field, 2 for elements of a slice-of-slices
// field, ...). Depth keeps a slice header write like s.rows[r] = make(...)
// distinct from the atomic words s.rows[r][i] inside it.
type fieldKey struct {
	obj   *types.Var
	depth int
}

type atomicFacts struct {
	// uses maps each atomically-accessed location class to the position
	// of one sync/atomic call proving it.
	uses map[fieldKey]token.Pos
	// blessed holds the exact &-operand nodes that feed sync/atomic
	// calls, so the plain-access scan can skip them.
	blessed map[ast.Node]bool
}

func (prog *Program) atomics() *atomicFacts {
	prog.atomicOnce.Do(func() {
		f := &atomicFacts{
			uses:    make(map[fieldKey]token.Pos),
			blessed: make(map[ast.Node]bool),
		}
		for _, pkg := range prog.Packages {
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || !isAtomicCall(pkg.Info, call) {
						return true
					}
					for _, arg := range call.Args {
						u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
						if !ok || u.Op != token.AND {
							continue
						}
						if key, ok := fieldPath(pkg.Info, u.X); ok {
							if _, seen := f.uses[key]; !seen {
								f.uses[key] = call.Pos()
							}
							f.blessed[u] = true
						}
					}
					return true
				})
			}
		}
		prog.atomicFacts = f
	})
	return prog.atomicFacts
}

// isAtomicCall reports whether call invokes a function from sync/atomic
// (the package-level Load/Store/Add/Swap/CompareAndSwap families; the
// typed atomics are methods and enforce their discipline through the
// type system already).
func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync/atomic"
}

// fieldPath resolves expr to a (variable, index-depth) key when expr is
// a direct path rooted at a struct field selection or a package-level
// variable: s.f, s.f[i], s.f[i][j], pkgVar, pkgVar[i]. Paths rooted at
// locals (aliases) are invisible by design: the analyzers track the
// direct idiom the codebase writes, not general aliasing.
func fieldPath(info *types.Info, expr ast.Expr) (fieldKey, bool) {
	depth := 0
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.IndexExpr:
			// Generic instantiations parse as IndexExpr too; only count
			// real element indexing into a slice or array.
			if tv, ok := info.Types[e.X]; ok && !tv.IsType() {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Array, *types.Pointer:
					depth++
					expr = e.X
					continue
				}
			}
			return fieldKey{}, false
		case *ast.SelectorExpr:
			if selection, ok := info.Selections[e]; ok && selection.Kind() == types.FieldVal {
				return fieldKey{selection.Obj().(*types.Var), depth}, true
			}
			// Qualified package-level var (pkg.V).
			if v, ok := info.Uses[e.Sel].(*types.Var); ok && isPackageLevel(v) {
				return fieldKey{v, depth}, true
			}
			return fieldKey{}, false
		case *ast.Ident:
			if v, ok := info.Uses[e].(*types.Var); ok && isPackageLevel(v) {
				return fieldKey{v, depth}, true
			}
			return fieldKey{}, false
		default:
			return fieldKey{}, false
		}
	}
}

func isPackageLevel(v *types.Var) bool {
	return v.Parent() != nil && v.Parent().Parent() == types.Universe
}

// describeKey renders a key for diagnostics: "field q.slots elements" /
// "field q.state".
func describeKey(key fieldKey) string {
	name := key.obj.Name()
	if key.obj.IsField() {
		name = "field " + name
	} else {
		name = "var " + name
	}
	if key.depth > 0 {
		name += strings.Repeat("[...]", key.depth)
	}
	return name
}

// ---- function summaries (shared by guardexit and spinpace) ----

// funcFacts summarizes one module function for the interprocedural-lite
// checks: whether calling it may park the goroutine, whether it returns
// a guard it has already Entered (a producer like reclaim's Pool.Enter),
// and which of its guard-typed parameters it Exits or Releases (a
// releaser like reclaim's Pool.Exit).
type funcFacts struct {
	mayBlock bool
	produces bool
	releases map[int]bool // parameter index -> exits/releases it
}

type blockFacts struct {
	byFunc    map[*types.Func]*funcFacts
	guardType *types.Interface // reclaim.Guard, nil if reclaim not loaded
}

// reclaimLayer lists the packages whose internals are exempt from the
// blocking rule: the reclamation layer takes short internal locks while
// retiring (that is its job) and never parks, so calls into it do not
// count as blocking even while a guard is live.
func (prog *Program) reclaimLayer(pkgPath string) bool {
	switch strings.TrimPrefix(pkgPath, prog.ModulePath+"/") {
	case "reclaim", "internal/epoch", "internal/hazard":
		return true
	}
	return false
}

func (prog *Program) blocks() *blockFacts {
	prog.blockOnce.Do(func() {
		f := &blockFacts{byFunc: make(map[*types.Func]*funcFacts)}
		if rp := prog.pkgByPath(prog.ModulePath + "/reclaim"); rp != nil {
			if obj := rp.Types.Scope().Lookup("Guard"); obj != nil {
				if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
					f.guardType = iface
				}
			}
		}

		// Collect declared functions with bodies, plus their static
		// callees for the may-block fixpoint.
		type declInfo struct {
			fn      *types.Func
			decl    *ast.FuncDecl
			pkg     *Package
			callees []*types.Func
		}
		var decls []*declInfo
		byFn := make(map[*types.Func]*declInfo)
		for _, pkg := range prog.Packages {
			for _, file := range pkg.Files {
				for _, d := range file.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
					if !ok {
						continue
					}
					di := &declInfo{fn: fn, decl: fd, pkg: pkg}
					decls = append(decls, di)
					byFn[fn] = di
					f.byFunc[fn] = &funcFacts{releases: make(map[int]bool)}
				}
			}
		}

		for _, di := range decls {
			facts := f.byFunc[di.fn]
			// Direct blocking primitives in the body.
			if containsBlockingPrimitive(di.pkg.Info, di.decl.Body) {
				facts.mayBlock = true
			}
			// Static callees (for transitive blocking).
			ast.Inspect(di.decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := staticCallee(di.pkg.Info, call); callee != nil {
					di.callees = append(di.callees, callee)
				}
				return true
			})
		}

		// Fixpoint: a function that calls a may-block module function may
		// block itself (callees in the reclaim layer are exempt), and the
		// producer / releaser facts flow through helpers the same way.
		for changed := true; changed; {
			changed = false
			for _, di := range decls {
				facts := f.byFunc[di.fn]
				if f.guardType != nil && summarizeGuardFlow(di.pkg.Info, di.decl, f.guardType, facts, f.byFunc) {
					changed = true
				}
				if facts.mayBlock {
					continue
				}
				for _, callee := range di.callees {
					cf, ok := f.byFunc[callee]
					if !ok || !cf.mayBlock {
						continue
					}
					if callee.Pkg() != nil && prog.reclaimLayer(callee.Pkg().Path()) {
						continue
					}
					facts.mayBlock = true
					changed = true
					break
				}
			}
		}
		prog.blockFacts = f
	})
	return prog.blockFacts
}

func (prog *Program) pkgByPath(path string) *Package {
	for _, p := range prog.Packages {
		if p.Path == path {
			return p
		}
	}
	return nil
}

// containsBlockingPrimitive reports whether body directly performs an
// operation that can park the goroutine: a channel send or receive
// outside a select-with-default, a select without default, a range over
// a channel, a sync mutex/WaitGroup/Cond acquisition, or time.Sleep.
func containsBlockingPrimitive(info *types.Info, body ast.Node) bool {
	found := false
	var walk func(n ast.Node, chanOpsBlock bool)
	walk = func(n ast.Node, chanOpsBlock bool) {
		if n == nil || found {
			return
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				found = true
				return
			}
			// Non-blocking select: its comm ops don't park, but the case
			// bodies still run normally.
			for _, c := range n.Body.List {
				cc := c.(*ast.CommClause)
				if cc.Comm != nil {
					walk(cc.Comm, false)
				}
				for _, s := range cc.Body {
					walk(s, chanOpsBlock)
				}
			}
			return
		case *ast.SendStmt:
			if chanOpsBlock {
				found = true
				return
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && chanOpsBlock {
				found = true
				return
			}
		case *ast.RangeStmt:
			if t, ok := info.Types[n.X]; ok {
				if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
					found = true
					return
				}
			}
		case *ast.CallExpr:
			if isBlockingStdCall(info, n) {
				found = true
				return
			}
		case *ast.FuncLit:
			// A nested function's body blocks the goroutine that runs the
			// literal, not necessarily this one; its own summary is not
			// tracked (literals have no *types.Func), so stay conservative
			// and skip it.
			return
		}
		for _, child := range childNodes(n) {
			walk(child, chanOpsBlock)
		}
	}
	walk(body, true)
	return found
}

// isBlockingStdCall recognizes the stdlib blocking entry points the
// repo's rule names: mutex acquisition (sync.Mutex.Lock,
// sync.RWMutex.Lock/RLock, sync.Locker.Lock), sync.WaitGroup.Wait,
// sync.Cond.Wait, and time.Sleep.
func isBlockingStdCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sync":
		switch fn.Name() {
		case "Lock", "RLock", "Wait":
			return true
		}
	case "time":
		return fn.Name() == "Sleep"
	}
	return false
}

// summarizeGuardFlow fills the produces/releases facts for one declared
// function and reports whether it learned anything new: produces if it
// returns a guard value it called Enter on or got from a producer (or
// returns a producer's result directly); releases[i] if it calls Exit or
// Release on its i'th guard-typed parameter, or hands it to a releaser
// (directly or under a nil-check). reclaim.Pool's Enter/Exit, which wrap
// an outlined helper each, are summarized through this transitivity.
func summarizeGuardFlow(info *types.Info, decl *ast.FuncDecl, guard *types.Interface, facts *funcFacts, byFunc map[*types.Func]*funcFacts) bool {
	params := make(map[*types.Var]int)
	i := 0
	if decl.Type.Params != nil {
		for _, field := range decl.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					if isGuardType(v.Type(), guard) {
						params[v] = i
					}
				}
				i++
			}
		}
	}
	guardVar := func(e ast.Expr) *types.Var {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if v, ok := obj.(*types.Var); ok && isGuardType(v.Type(), guard) {
			return v
		}
		return nil
	}
	producerCall := func(e ast.Expr) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		cf, ok := byFunc[staticCallee(info, call)]
		return ok && cf.produces
	}

	produced, released := facts.produces, len(facts.releases)
	entered := make(map[*types.Var]bool)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 && producerCall(n.Rhs[0]) {
				if v := guardVar(n.Lhs[0]); v != nil {
					entered[v] = true
				}
			}
		case *ast.CallExpr:
			if cf, ok := byFunc[staticCallee(info, n)]; ok {
				for idx := range cf.releases {
					if idx >= len(n.Args) {
						continue
					}
					if pi, isParam := params[guardVar(n.Args[idx])]; isParam {
						facts.releases[pi] = true
					}
				}
			}
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			v := guardVar(sel.X)
			if v == nil {
				return true
			}
			switch sel.Sel.Name {
			case "Enter":
				entered[v] = true
			case "Exit", "Release":
				if idx, isParam := params[v]; isParam {
					facts.releases[idx] = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if v := guardVar(res); v != nil && entered[v] || producerCall(res) {
					facts.produces = true
				}
			}
		}
		return true
	})
	return facts.produces != produced || len(facts.releases) != released
}

func isGuardType(t types.Type, guard *types.Interface) bool {
	if guard == nil {
		return false
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		return types.Identical(iface, guard)
	}
	return types.Implements(t, guard)
}

// staticCallee resolves a call to the declared function or method it
// statically invokes, or nil for interface calls, function values, and
// builtins.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	// Origin() folds instantiated generic functions and methods back to
	// the declaration the summary tables are keyed by.
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			// Method on an interface value has no body; leave those nil.
			if fn, ok := sel.Obj().(*types.Func); ok {
				if _, isIface := sel.Recv().Underlying().(*types.Interface); !isIface {
					return fn.Origin()
				}
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}

// childNodes returns n's direct children, in source order.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}

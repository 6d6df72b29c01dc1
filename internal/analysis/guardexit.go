package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GuardExit machine-checks PR 4's reclamation rule: every
// reclaim.Guard.Enter must reach Exit on every control-flow path (a
// defer counts), and nothing that can park the goroutine — an
// internal/park call, a channel operation, a mutex acquisition, a sleep
// — may run while a guard is live, because a pinned epoch stalls
// reclamation for the whole domain.
//
// The checker is intraprocedural plus module-wide summaries: a helper
// that Enters a guard and returns it (reclaim's Pool.Enter, which every
// structure opens its sections with) marks its callers' assignee live, a
// helper that Exits a guard parameter (Pool.Exit) counts as an exit —
// both transitively, through helpers of helpers — and any call to a
// module function that transitively performs a blocking primitive counts
// as parking. Guard-typed parameters are assumed live on entry —
// by convention a callee holding a guard argument is inside its caller's
// section — but exiting them is the caller's responsibility, so only
// locally-entered guards are checked for exit-before-return. Calls into
// the reclamation layer itself are exempt from the blocking rule: its
// short internal locks are its own business and it never parks.
var GuardExit = &Analyzer{
	Name: "guardexit",
	Doc:  "reclaim guards must exit on every path and never be held across a parking operation",
	Run:  runGuardExit,
}

func runGuardExit(prog *Program, report func(pos token.Pos, format string, args ...any)) {
	bf := prog.blocks()
	if bf.guardType == nil {
		return // reclaim not in the program; nothing to check
	}
	for _, pkg := range prog.Packages {
		if prog.reclaimLayer(pkg.Path) {
			continue // the layer's own internals implement the protocol
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkGuardFunc(prog, pkg, fd.Type, fd.Body, report)
			}
		}
	}
}

// guardState tracks the walker's view of one function body: how many
// open Enters each guard expression has, and which guards have a
// deferred exit registered.
type guardState struct {
	live     map[string]int
	deferred map[string]bool
	// param guards are live-on-entry but exempt from the
	// exit-before-return check.
	params map[string]bool
}

func newGuardState() *guardState {
	return &guardState{
		live:     make(map[string]int),
		deferred: make(map[string]bool),
		params:   make(map[string]bool),
	}
}

func (st *guardState) clone() *guardState {
	c := newGuardState()
	for k, v := range st.live {
		c.live[k] = v
	}
	for k := range st.deferred {
		c.deferred[k] = true
	}
	c.params = st.params // shared: set once at entry
	return c
}

// merge joins two branch outcomes conservatively: a guard is as live as
// the livest branch, and a deferred exit on either branch counts.
func (st *guardState) merge(other *guardState) {
	for k, v := range other.live {
		if v > st.live[k] {
			st.live[k] = v
		}
	}
	for k := range other.deferred {
		st.deferred[k] = true
	}
}

func (st *guardState) anyLive() bool {
	for _, v := range st.live {
		if v > 0 {
			return true
		}
	}
	return false
}

type guardWalker struct {
	prog   *Program
	pkg    *Package
	bf     *blockFacts
	report func(pos token.Pos, format string, args ...any)
}

func checkGuardFunc(prog *Program, pkg *Package, ftype *ast.FuncType, body *ast.BlockStmt, report func(pos token.Pos, format string, args ...any)) {
	w := &guardWalker{prog: prog, pkg: pkg, bf: prog.blocks(), report: report}
	st := newGuardState()
	if ftype.Params != nil {
		for _, field := range ftype.Params.List {
			for _, name := range field.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok && isGuardType(v.Type(), w.bf.guardType) {
					st.live[name.Name] = 1
					st.params[name.Name] = true
				}
			}
		}
	}
	terminated := w.walkStmts(body.List, st)
	if !terminated {
		w.checkReturn(st, nil, body.End()-1)
	}
}

// walkStmts runs the walker over a statement list, mutating st in
// place. It reports true when the list definitely terminates (returns
// on every path or spins forever), meaning no fall-through exit exists.
func (w *guardWalker) walkStmts(stmts []ast.Stmt, st *guardState) bool {
	for _, s := range stmts {
		if w.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (w *guardWalker) walkStmt(s ast.Stmt, st *guardState) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)

	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		w.scanExpr(s.Cond, st)
		thenSt := st.clone()
		tThen := w.walkStmt(s.Body, thenSt)
		elseSt := st.clone()
		tElse := false
		if s.Else != nil {
			tElse = w.walkStmt(s.Else, elseSt)
		}
		switch {
		case tThen && tElse:
			return true
		case tThen:
			*st = *elseSt
		case tElse:
			*st = *thenSt
		default:
			*st = *thenSt
			st.merge(elseSt)
		}
		return false

	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, st)
		}
		entry := st.clone()
		bodySt := st.clone()
		w.walkStmt(s.Body, bodySt)
		if s.Post != nil {
			w.walkStmt(s.Post, bodySt)
		}
		// A guard entered inside the body and still open at the bottom
		// leaks one section per iteration.
		for k, v := range bodySt.live {
			if v > entry.live[k] && !bodySt.deferred[k] {
				w.report(s.Pos(), "guard %s re-enters across loop iterations without a matching Exit", k)
			}
		}
		*st = *entry
		st.merge(bodySt)
		// `for { ... }` with no break never falls through.
		return s.Cond == nil && !hasBreak(s.Body)

	case *ast.RangeStmt:
		w.scanExpr(s.X, st)
		entry := st.clone()
		bodySt := st.clone()
		w.walkStmt(s.Body, bodySt)
		for k, v := range bodySt.live {
			if v > entry.live[k] && !bodySt.deferred[k] {
				w.report(s.Pos(), "guard %s re-enters across loop iterations without a matching Exit", k)
			}
		}
		*st = *entry
		st.merge(bodySt)
		return false

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var body *ast.BlockStmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			if sw.Init != nil {
				w.walkStmt(sw.Init, st)
			}
			if sw.Tag != nil {
				w.scanExpr(sw.Tag, st)
			}
			body = sw.Body
		case *ast.TypeSwitchStmt:
			body = sw.Body
		}
		entry := st.clone()
		merged := false
		for _, c := range body.List {
			cc := c.(*ast.CaseClause)
			caseSt := entry.clone()
			if !w.walkStmts(cc.Body, caseSt) {
				if !merged {
					*st = *caseSt
					merged = true
				} else {
					st.merge(caseSt)
				}
			}
		}
		if !merged {
			*st = *entry
		} else {
			st.merge(entry) // no-default or all-guards paths fall through too
		}
		return false

	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc := c.(*ast.CommClause); cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault && st.anyLive() {
			w.report(s.Pos(), "select may park while guard %s is live", st.someLive())
		}
		entry := st.clone()
		merged := false
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			caseSt := entry.clone()
			if !w.walkStmts(cc.Body, caseSt) {
				if !merged {
					*st = *caseSt
					merged = true
				} else {
					st.merge(caseSt)
				}
			}
		}
		if !merged {
			*st = *entry
		}
		return false

	case *ast.ReturnStmt:
		for _, res := range s.Results {
			w.scanExpr(res, st)
		}
		w.checkReturn(st, s.Results, s.Pos())
		return true

	case *ast.BranchStmt:
		// break/continue/goto end this path as far as straight-line
		// tracking goes; the loop-level merge covers the rejoin.
		return s.Tok != token.FALLTHROUGH

	case *ast.DeferStmt:
		w.applyDefer(s, st)
		return false

	case *ast.GoStmt:
		// The spawned goroutine runs under its own sections; its body is
		// checked when its FuncLit is visited. Arguments evaluate now.
		for _, arg := range s.Call.Args {
			w.scanExpr(arg, st)
		}
		return false

	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)

	case *ast.ExprStmt:
		w.scanExpr(s.X, st)
		return false

	case *ast.SendStmt:
		w.scanExpr(s.Value, st)
		if st.anyLive() {
			w.report(s.Pos(), "channel send may park while guard %s is live", st.someLive())
		}
		return false

	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.scanExpr(rhs, st)
		}
		for _, lhs := range s.Lhs {
			w.scanExpr(lhs, st)
		}
		// `g := producer()` marks g live: the producer Entered it before
		// returning it.
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
				if fn := staticCallee(w.pkg.Info, call); fn != nil {
					if facts, ok := w.bf.byFunc[fn]; ok && facts.produces {
						if id, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident); ok {
							st.live[id.Name]++
						}
					}
				}
			}
		}
		return false

	case *ast.IncDecStmt:
		w.scanExpr(s.X, st)
		return false

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v, st)
					}
				}
			}
		}
		return false
	}
	return false
}

// checkReturn reports locally-entered guards still live at a return (or
// at the function's fall-through end). Deferred exits satisfy the rule;
// guards returned to the caller are producers, which own the obligation
// upstream; parameter guards belong to the caller.
func (w *guardWalker) checkReturn(st *guardState, results []ast.Expr, pos token.Pos) {
	escaping := make(map[string]bool)
	for _, res := range results {
		if id, ok := ast.Unparen(res).(*ast.Ident); ok {
			escaping[id.Name] = true
		}
	}
	for k, v := range st.live {
		if v <= 0 || st.deferred[k] || st.params[k] || escaping[k] {
			continue
		}
		w.report(pos, "guard %s may still be in a section on this return path (missing Exit or defer)", k)
	}
}

// applyDefer handles defer statements: `defer g.Exit()`, `defer
// release(g)`, and `defer func() { ...g.Exit()... }()` all register a
// function-exit release for g.
func (w *guardWalker) applyDefer(s *ast.DeferStmt, st *guardState) {
	for _, arg := range s.Call.Args {
		w.scanExpr(arg, st)
	}
	if key, op := w.guardMethod(s.Call); op == "Exit" || op == "Release" {
		st.deferred[key] = true
		return
	}
	for _, key := range w.releaserArgs(s.Call) {
		st.deferred[key] = true
	}
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if key, op := w.guardMethod(call); op == "Exit" || op == "Release" {
				st.deferred[key] = true
			}
			for _, key := range w.releaserArgs(call) {
				st.deferred[key] = true
			}
			return true
		})
	}
}

// scanExpr processes an expression for guard state changes and blocking
// operations, in source order.
func (w *guardWalker) scanExpr(e ast.Expr, st *guardState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closures run later under their own discipline; check their
			// bodies as independent functions.
			checkGuardFunc(w.prog, w.pkg, n.Type, n.Body, w.report)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && st.anyLive() {
				w.report(n.Pos(), "channel receive may park while guard %s is live", st.someLive())
			}
		case *ast.CallExpr:
			// Arguments first (source order approximation).
			for _, arg := range n.Args {
				w.scanExpr(arg, st)
			}
			w.applyCall(n, st)
			return false
		}
		return true
	})
}

// applyCall folds one call's effect into the state: guard method calls
// move the live count, releaser helpers exit their guard arguments, and
// calls that may block are reported when any guard is live.
func (w *guardWalker) applyCall(call *ast.CallExpr, st *guardState) {
	if key, op := w.guardMethod(call); key != "" {
		switch op {
		case "Enter":
			st.live[key]++
		case "Exit", "Release":
			if st.live[key] > 0 {
				st.live[key]--
			}
		}
		return
	}
	for _, key := range w.releaserArgs(call) {
		if st.live[key] > 0 {
			st.live[key]--
		}
	}
	if !st.anyLive() {
		return
	}
	// Blocking check: park-layer and transitively-blocking module calls.
	fn := staticCallee(w.pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if w.prog.reclaimLayer(fn.Pkg().Path()) {
		return
	}
	if isBlockingStdCall(w.pkg.Info, call) {
		w.report(call.Pos(), "%s may park while guard %s is live", fn.Name(), st.someLive())
		return
	}
	if fn.Pkg().Path() == w.prog.ModulePath+"/internal/park" {
		w.report(call.Pos(), "internal/park call %s while guard %s is live", fn.Name(), st.someLive())
		return
	}
	if facts, ok := w.bf.byFunc[fn]; ok && facts.mayBlock {
		w.report(call.Pos(), "call to %s may park while guard %s is live", fn.Name(), st.someLive())
	}
}

// guardMethod matches `<key>.Enter()` / `<key>.Exit()` / `<key>.Release()`
// on a guard-typed receiver and returns the canonical key and method
// name.
func (w *guardWalker) guardMethod(call *ast.CallExpr) (key, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Enter", "Exit", "Release":
	default:
		return "", ""
	}
	if tv, ok := w.pkg.Info.Types[sel.X]; !ok || !isGuardType(tv.Type, w.bf.guardType) {
		return "", ""
	}
	key = exprKey(sel.X)
	if key == "" {
		return "", ""
	}
	return key, sel.Sel.Name
}

// releaserArgs returns the canonical keys of guard arguments passed to
// a summarized releaser helper (one that Exits/Releases that
// parameter).
func (w *guardWalker) releaserArgs(call *ast.CallExpr) []string {
	fn := staticCallee(w.pkg.Info, call)
	if fn == nil {
		return nil
	}
	facts, ok := w.bf.byFunc[fn]
	if !ok || len(facts.releases) == 0 {
		return nil
	}
	var keys []string
	for idx := range facts.releases {
		if idx < len(call.Args) {
			if key := exprKey(call.Args[idx]); key != "" {
				keys = append(keys, key)
			}
		}
	}
	return keys
}

// exprKey canonicalizes simple guard expressions (g, q.g) for state
// tracking; anything fancier is untracked.
func exprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := exprKey(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	}
	return ""
}

// someLive names one live guard for the diagnostic text.
func (st *guardState) someLive() string {
	best := ""
	for k, v := range st.live {
		if v > 0 && (best == "" || k < best) {
			best = k
		}
	}
	return best
}

// hasBreak reports whether body contains a break that targets the
// enclosing loop (unlabeled, not inside a nested loop/switch/select
// which would rebind it).
func hasBreak(body ast.Stmt) bool {
	found := false
	var walk func(n ast.Stmt)
	walk = func(n ast.Stmt) {
		if n == nil || found {
			return
		}
		switch n := n.(type) {
		case *ast.BranchStmt:
			if n.Tok == token.BREAK {
				found = true
			}
		case *ast.BlockStmt:
			for _, s := range n.List {
				walk(s)
			}
		case *ast.IfStmt:
			walk(n.Body)
			walk(n.Else)
		case *ast.LabeledStmt:
			walk(n.Stmt)
		case *ast.CaseClause:
			for _, s := range n.Body {
				walk(s)
			}
		}
		// Nested for/range/switch/select rebind break; labeled breaks out
		// of them are rare enough to accept the imprecision.
	}
	walk(body)
	return found
}

package lint

import "go/ast"

// AnalyzerCtxflow guards DESIGN.md Sec. 12 (cancellation points): once
// a context enters a call path it must reach every cancellation-capable
// callee, or a deadline silently stops propagating and the Sec. 5.2
// admission loop keeps enumerating after its caller gave up. Three
// checks, all riding the interprocedural call graph:
//
//  1. a function that accepts a context.Context must pass it on: a call
//     to a callee that has a context-accepting variant (itself, or a
//     sibling named <fn>Context) without forwarding any context is a
//     dropped-context finding;
//  2. context.Background()/context.TODO() are banned in non-test
//     library code: a library function that needs a context takes one,
//     so no internal package keeps a context-free twin of a Context
//     entry point;
//  3. storing a context in a struct field outlives the call it scopes
//     (the context package's own first rule); the field declaration is
//     the finding.
//
// Package main and the root abw facade are exempt from check 2:
// commands mint their root contexts, and the facade's context-free
// methods are the entry point for library callers. Test files are
// exempt from checks 2 and 3 (tests mint contexts freely) but not from
// check 1 — a test helper that takes a ctx and drops it hides exactly
// the regression this rule exists for.
var AnalyzerCtxflow = &Analyzer{
	Name: "ctxflow",
	Doc: "context.Context must flow to every cancellation-capable callee: " +
		"dropped ctx on a call with a Context variant, context.Background/TODO " +
		"outside package main and the abw facade, or a ctx stored in a " +
		"struct field (guards Sec. 12: cancellation points)",
	Run: runCtxflow,
}

func runCtxflow(p *Pass) {
	cg := p.CallGraph()
	for _, f := range p.Files {
		p.checkCtxFields(f)
	}
	for _, n := range cg.ByDecl {
		p.checkCtxCalls(n)
	}
	if name := p.Pkg.Name(); name != "main" && name != "abw" {
		for _, n := range cg.ByDecl {
			p.checkCtxBackground(n)
		}
	}
}

// checkCtxFields flags struct fields of type context.Context (check 3).
func (p *Pass) checkCtxFields(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok || st.Fields == nil {
			return true
		}
		for _, field := range st.Fields.List {
			if p.InTestFile(field.Pos()) {
				continue
			}
			if t := p.TypeOf(field.Type); t != nil && isContextType(t) {
				p.Reportf(field.Pos(), "context.Context stored in a struct field outlives the call it scopes; pass ctx as a parameter instead")
			}
		}
		return true
	})
}

// checkCtxCalls enforces propagation (check 1): inside a function with
// a context parameter, every call whose callee has a context-accepting
// variant must forward a context.
func (p *Pass) checkCtxCalls(n *FuncNode) {
	ctxVar := ctxParamOf(p.Info, n.Decl)
	if ctxVar == nil {
		return
	}
	for _, site := range n.Calls {
		variant := ContextVariant(site.Callee)
		if variant == nil {
			continue
		}
		if p.forwardsContext(site.Call) {
			continue
		}
		if variant == site.Callee {
			// The callee demands a context and the call compiled, so a
			// context argument exists — it just isn't flowing from here
			// (it is a fresh Background/TODO, caught by check 2, or some
			// stored context). Nothing more to say at this site.
			continue
		}
		p.Reportf(site.Call.Pos(), "call drops ctx: %s has a context-accepting variant %s; pass the ctx this function received",
			site.Callee.Name(), variant.Name())
	}
}

// forwardsContext reports whether any argument of call is a
// context-typed expression that is not a fresh context.Background() or
// context.TODO() — a received ctx, a derived context, or a field of
// one.
func (p *Pass) forwardsContext(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		t := p.TypeOf(arg)
		if t == nil || !isContextType(t) {
			continue
		}
		if isCtxMint(p, arg) {
			continue
		}
		return true
	}
	return false
}

// isCtxMint reports whether e is a direct context.Background() or
// context.TODO() call.
func isCtxMint(p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := p.calleeFunc(call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "Background" || fn.Name() == "TODO")
}

// checkCtxBackground enforces the Background/TODO ban (check 2).
func (p *Pass) checkCtxBackground(n *FuncNode) {
	if p.InTestFile(n.Decl.Pos()) {
		return
	}
	ast.Inspect(n.Decl.Body, func(c ast.Node) bool {
		if call, ok := c.(*ast.CallExpr); ok && isCtxMint(p, call) {
			p.Reportf(call.Pos(), "context.%s() in library code severs cancellation; accept a ctx parameter (only package main and the abw facade mint contexts)", p.calleeFunc(call).Name())
		}
		return true
	})
}

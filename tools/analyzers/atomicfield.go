package main

import (
	"go/ast"
	"go/types"
)

// checkAtomicField enforces that a struct field published through atomics is
// never also accessed through plain loads and stores — the classic
// mixed-access race that vanishes under -race only when the plain side
// happens not to run concurrently. Two shapes are covered:
//
//  1. Fields of the method-based atomic types (atomic.Uint64, atomic.Int64,
//     atomic.Pointer[T], ...) may only be touched through their methods or
//     by taking their address (to pass to a helper that calls the methods).
//     Any other use — copying the value out, assigning over it — bypasses
//     the atomic protocol.
//  2. A plain-typed field whose address is passed to a sync/atomic free
//     function (atomic.LoadUint64(&s.f), atomic.AddInt64(&s.f, d), ...)
//     anywhere in the package must be accessed that way everywhere: a bare
//     read or write of the same field elsewhere races with the atomic side.
//
// The scheduler's deques, the per-module invocation counters, and the cluster
// health/stat counters are exactly the state this guards; a single plain
// `w.qlen++` next to `w.qlen.Add(1)` call sites is a silent lost-update.
// Deliberate pre-publication initialization can be suppressed with a
// //sledge:coldpath marker like the other checks.
func checkAtomicField(p *pass) {
	// Pass 1: find every field reached through sync/atomic — by type, or by
	// address-of argument to a free function — and remember the uses that
	// are part of the atomic protocol itself (blessed).
	viaFunc := make(map[*types.Var]bool)
	blessed := make(map[ast.Expr]bool)
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn, ok := n.Fun.(*ast.SelectorExpr); ok && p.isAtomicPkgFunc(fn) {
					for _, arg := range n.Args {
						if u, ok := arg.(*ast.UnaryExpr); ok {
							if fld := p.fieldOf(u.X); fld != nil {
								viaFunc[fld] = true
								blessed[u.X] = true
							}
						}
					}
				}
			case *ast.SelectorExpr:
				// s.f.Load / s.f.Store / ... — method access on an
				// atomic-typed field blesses the inner selector.
				if sel, ok := p.info.Selections[n]; ok && sel.Kind() != types.FieldVal {
					blessed[n.X] = true
				}
			case *ast.UnaryExpr:
				// &s.f on an atomic-typed field: passing the atomic itself
				// around is fine; the callee still goes through methods.
				if fld := p.fieldOf(n.X); fld != nil && isAtomicType(fld.Type()) {
					blessed[n.X] = true
				}
			}
			return true
		})
	}

	// Pass 2: every remaining use of a tracked field is a plain access.
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || blessed[sel] {
				return true
			}
			fld := p.fieldOf(sel)
			if fld == nil {
				return true
			}
			if isAtomicType(fld.Type()) {
				p.reportf(sel.Pos(), "field %s has atomic type %s: access it only through its methods or by address",
					fld.Name(), fld.Type())
			} else if viaFunc[fld] {
				p.reportf(sel.Pos(), "field %s is accessed via sync/atomic elsewhere in this package: plain access races with it",
					fld.Name())
			}
			return true
		})
	}
}

// fieldOf resolves e to the struct field it selects, or nil.
func (p *pass) fieldOf(e ast.Expr) *types.Var {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := p.info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v
}

// isAtomicPkgFunc reports whether fn selects a function from sync/atomic
// (atomic.LoadUint64, atomic.AddInt64, atomic.CompareAndSwapPointer, ...).
func (p *pass) isAtomicPkgFunc(fn *ast.SelectorExpr) bool {
	id, ok := fn.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := p.info.Uses[id].(*types.PkgName)
	return ok && pkg.Imported().Path() == "sync/atomic"
}

// isAtomicType reports whether t is one of sync/atomic's method-based types
// (including instantiated atomic.Pointer[T]).
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

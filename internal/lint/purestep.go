package lint

import (
	"go/ast"
	"go/types"
)

// purestep checks that transition and precondition functions
// registered through the internal/ioa builder (Def.Input, InputND,
// Output, OutputND, Internal, InternalND) never write through their
// incoming state. The model requires Next to be a pure function of
// its arguments: explored states are shared between the engine's
// workers, memoized by the composition cache, and
// compared by canonical key, so in-place mutation corrupts the state
// graph silently.
//
// The check is a lightweight intra-function taint pass: the ioa.State
// parameters are tainted; a type assertion to a pointer type yields a
// reference alias (any field write through it is a violation); an
// assertion to a value type yields a shallow copy (writes are
// violations only when the path crosses a map, slice, or pointer
// field, which still aliases the original).
type purestep struct{}

func init() { Register(purestep{}) }

func (purestep) Name() string { return "purestep" }

func (purestep) Doc() string {
	return "transition functions registered via the ioa builder must not mutate their state argument"
}

// stateArgIndexes maps each builder method to the argument positions
// holding state functions (pre, eff, or next).
var stateArgIndexes = map[string][]int{
	"Input":      {1},
	"InputND":    {1},
	"Output":     {2, 3},
	"OutputND":   {2},
	"Internal":   {2, 3},
	"InternalND": {2},
}

// isIoaDefMethod reports whether fn is a method on internal/ioa's Def
// builder, returning the method name.
func isIoaDefMethod(fn *types.Func) (string, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Def" {
		return "", false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || internalSegment(pkg.Path()) != "ioa" {
		return "", false
	}
	return fn.Name(), true
}

// isIoaState reports whether t is the internal/ioa State interface.
func isIoaState(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "State" {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && internalSegment(pkg.Path()) == "ioa"
}

// Taint levels for objects aliasing the incoming state.
const (
	taintNone = iota
	// taintShallow marks a value copy of (part of) the state: direct
	// field writes land on the copy, but writes through its map,
	// slice, or pointer fields reach the original.
	taintShallow
	// taintRef marks a reference to the original state (the interface
	// parameter itself, a pointer-asserted alias, or a map/slice field
	// pulled out of one): any write through it is a violation.
	taintRef
)

func (purestep) Run(p *Pass) {
	// Index this package's function declarations so named functions
	// passed to the builder can be analyzed too.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	analyzed := make(map[ast.Node]bool)
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := p.CalleeFunc(call)
			if fn == nil {
				return true
			}
			method, ok := isIoaDefMethod(fn)
			if !ok {
				return true
			}
			for _, idx := range stateArgIndexes[method] {
				if idx >= len(call.Args) {
					continue
				}
				switch arg := ast.Unparen(call.Args[idx]).(type) {
				case *ast.FuncLit:
					if !analyzed[arg] {
						analyzed[arg] = true
						checkStateFunc(p, arg.Type, arg.Body)
					}
				case *ast.Ident:
					if target, ok := p.Pkg.Info.Uses[arg].(*types.Func); ok {
						if fd := decls[target]; fd != nil && !analyzed[fd] {
							analyzed[fd] = true
							checkStateFunc(p, fd.Type, fd.Body)
						}
					}
				}
			}
			return true
		})
	}
}

// checkStateFunc taints the ioa.State parameters of one registered
// function and reports writes that reach the original state.
func checkStateFunc(p *Pass, ft *ast.FuncType, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	taint := make(map[types.Object]int)
	for _, field := range ft.Params.List {
		t := p.TypeOf(field.Type)
		if t == nil || !isIoaState(t) {
			continue
		}
		for _, name := range field.Names {
			if obj := p.Pkg.Info.Defs[name]; obj != nil {
				taint[obj] = taintRef
			}
		}
	}
	if len(taint) == 0 {
		return
	}
	report := func(pos ast.Node, what string) {
		p.Reportf(pos.Pos(), "transition function mutates its state argument (%s); return a fresh state instead (§2.1: steps are relations over immutable states)", what)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Propagate aliases on 1:1 define/assign of plain idents.
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					if level := aliasTaint(p, taint, n.Rhs[i]); level != taintNone {
						if obj := p.objectOf(id); obj != nil && taint[obj] < level {
							taint[obj] = level
						}
					}
				}
			}
			for _, lhs := range n.Lhs {
				if obj, bad := writeViolation(p, taint, lhs); bad {
					report(n, "write to "+obj.Name())
				}
			}
		case *ast.IncDecStmt:
			if obj, bad := writeViolation(p, taint, n.X); bad {
				report(n, "increment of "+obj.Name())
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, builtin := p.Pkg.Info.Uses[id].(*types.Builtin); builtin && id.Name == "delete" && len(n.Args) > 0 {
					// delete always mutates the map it is handed; the
					// path to it need only be rooted in tainted state.
					if obj := taintedRoot(p, taint, n.Args[0]); obj != nil {
						report(n, "delete from map of "+obj.Name())
					}
				}
			}
		}
		return true
	})
}

// aliasTaint computes the taint of a right-hand side derived from
// tainted state: assertions to pointer types and reference-kinded
// field reads stay references; value reads become shallow copies.
func aliasTaint(p *Pass, taint map[types.Object]int, rhs ast.Expr) int {
	rhs = ast.Unparen(rhs)
	switch e := rhs.(type) {
	case *ast.Ident:
		return taint[p.Pkg.Info.Uses[e]]
	case *ast.TypeAssertExpr:
		if aliasTaint(p, taint, e.X) == taintNone {
			return taintNone
		}
		if e.Type == nil {
			return taintNone
		}
		if isRefKind(p.TypeOf(e.Type)) {
			return taintRef
		}
		return taintShallow
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		if taintedRoot(p, taint, rhs) == nil {
			return taintNone
		}
		if isRefKind(p.TypeOf(rhs)) {
			return taintRef
		}
		return taintShallow
	}
	return taintNone
}

// isRefKind reports whether values of t share underlying storage when
// copied.
func isRefKind(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan:
		return true
	}
	return false
}

// taintedRoot peels selectors, indexes, derefs, and type assertions
// off an expression and returns the tainted base object, if any.
func taintedRoot(p *Pass, taint map[types.Object]int, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := p.Pkg.Info.Uses[x]; obj != nil && taint[obj] != taintNone {
				return obj
			}
			return nil
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// writeViolation reports whether assigning through lhs mutates the
// original state: always for reference taint (when the write goes
// through at least one selector/index/deref), and for shallow copies
// only when the path crosses a map, slice, or pointer boundary.
func writeViolation(p *Pass, taint map[types.Object]int, lhs ast.Expr) (types.Object, bool) {
	crossedRef := false
	depth := 0
	e := lhs
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := p.Pkg.Info.Uses[x]
			if obj == nil {
				return nil, false
			}
			switch taint[obj] {
			case taintRef:
				return obj, depth > 0
			case taintShallow:
				return obj, crossedRef
			}
			return nil, false
		case *ast.SelectorExpr:
			if t := p.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Pointer); ok {
					crossedRef = true
				}
			}
			depth++
			e = x.X
		case *ast.IndexExpr:
			if t := p.TypeOf(x.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Map, *types.Slice, *types.Pointer:
					crossedRef = true
				}
			}
			depth++
			e = x.X
		case *ast.StarExpr:
			crossedRef = true
			depth++
			e = x.X
		case *ast.TypeAssertExpr:
			if x.Type != nil && isRefKind(p.TypeOf(x.Type)) {
				crossedRef = true
			}
			depth++
			e = x.X
		default:
			return nil, false
		}
	}
}

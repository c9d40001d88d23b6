package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"

	"kloc/internal/trace"
)

// TraceReach keeps the trace catalog and its Tracer.Emit sites in step,
// in both directions.
//
// Every Emit site, reachable or not, must pass a constant event name
// from the catalog. A typo'd or ad-hoc name would silently create an
// event no -trace-events pattern enables and no OBSERVABILITY.md
// section documents; a non-constant name defeats static auditing of
// the catalog entirely.
//
// Every catalog constant must still have a live Emit site. A constant
// with no reachable emitter is a dead entry — it shows up in
// trace.Names(), -trace-events patterns match it, and OBSERVABILITY.md
// documents it, but no run can ever produce the event. That is exactly
// the drift a tracepoint catalog accumulates when subsystems are
// refactored and their instrumentation is deleted without
// unregistering the event.
//
// The registered set is trace.Names(), read at analysis time so adding
// an event means registering it once; the entries under the
// reachability audit are the trace.Name constants declared in the
// analyzed packages. Reachability runs over the module call graph from
// its entry surface: exported functions and methods, main, init, and
// functions referenced from package-level initializers. An Emit site buried in an unexported function nothing
// calls does not keep its catalog entry alive. Catalog constants kept
// intentionally (e.g. reserved for an in-flight subsystem) carry
// //klocs:ignore-tracereach with the justification.
var TraceReach = &ModuleAnalyzer{
	Name: "tracereach",
	Doc:  "require Tracer.Emit sites to use constant catalog names, and every catalog constant to be emitted from reachable code",
	Run:  runTraceReach,
}

const traceReachMarker = "ignore-tracereach"

// tracePkgPath is the trace plane's package: home of Tracer, Name and
// the registered catalog.
const tracePkgPath = "kloc/internal/trace"

// registeredTraceNames is the registered name set, materialized once
// from the live catalog so the analyzer can never drift from it.
var registeredTraceNames = func() map[string]bool {
	set := make(map[string]bool, len(trace.Names()))
	for _, n := range trace.Names() {
		set[string(n)] = true
	}
	return set
}()

func runTraceReach(pass *ModulePass) error {
	g := pass.Module.Graph

	// The catalog under audit: package-level constants of type
	// trace.Name declared anywhere in the analyzed packages.
	type catalogEntry struct {
		name  string
		ident string
		pos   token.Pos
	}
	var catalog []catalogEntry
	analyzesRegistry := false
	for _, pkg := range pass.Module.Packages {
		analyzesRegistry = analyzesRegistry || pkg.Path == tracePkgPath
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok || !isTraceName(c.Type()) {
				continue
			}
			if c.Val().Kind() != constant.String {
				continue
			}
			catalog = append(catalog, catalogEntry{
				name:  constant.StringVal(c.Val()),
				ident: name,
				pos:   c.Pos(),
			})
		}
	}

	// An Emit name must be registered in trace.Names(). A run that does
	// not analyze internal/trace itself (a fixture importing it) also
	// accepts the trace.Name constants it declares: they are its
	// catalog.
	known := registeredTraceNames
	if !analyzesRegistry {
		known = make(map[string]bool, len(registeredTraceNames)+len(catalog))
		for name := range registeredTraceNames {
			known[name] = true
		}
		for _, entry := range catalog {
			known[entry.name] = true
		}
	}

	// Every Emit site names a catalog constant.
	for _, pkg := range pass.Module.Packages {
		info := pkg.Info
		inspectFiles(pkg, func(n ast.Node) bool {
			if arg := emitNameArg(info, n); arg != nil {
				tv := info.Types[arg]
				switch {
				case tv.Value == nil || tv.Value.Kind() != constant.String:
					pass.Reportf(arg.Pos(), "Tracer.Emit with non-constant event name: use a trace.Name constant from the internal/trace catalog so enables and documentation can find it")
				case !known[constant.StringVal(tv.Value)]:
					pass.Reportf(arg.Pos(), "Tracer.Emit with unregistered event name %q: not in the internal/trace catalog (see trace.Names and OBSERVABILITY.md)", constant.StringVal(tv.Value))
				}
			}
			return true
		})
	}
	if len(catalog) == 0 {
		return nil
	}

	// Names emitted from reachable code.
	reached := g.Reachable(entrySurface(g))
	emitted := make(map[string]bool)
	for _, n := range g.Nodes {
		if !reached[n] {
			continue
		}
		body := n.Body()
		if body == nil {
			continue
		}
		info := n.Pkg.Info
		ast.Inspect(body, func(m ast.Node) bool {
			if arg := emitNameArg(info, m); arg != nil {
				if tv := info.Types[arg]; tv.Value != nil && tv.Value.Kind() == constant.String {
					emitted[constant.StringVal(tv.Value)] = true
				}
			}
			return true
		})
	}

	sort.Slice(catalog, func(i, j int) bool { return catalog[i].pos < catalog[j].pos })
	for _, entry := range catalog {
		if emitted[entry.name] {
			continue
		}
		if pass.Marked(traceReachMarker, entry.pos) {
			continue
		}
		pass.Reportf(entry.pos, "trace catalog constant %s (%q) has no reachable Tracer.Emit site: dead catalog entry — emit it, delete it, or annotate //klocs:ignore-tracereach", entry.ident, entry.name)
	}
	return nil
}

// emitNameArg returns the event-name argument when n is a
// Tracer.Emit call, else nil.
func emitNameArg(info *types.Info, n ast.Node) ast.Expr {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if fn, ok := info.Uses[sel.Sel].(*types.Func); !ok || !isTracerEmit(fn) {
		return nil
	}
	return call.Args[0]
}

// isTracerEmit reports whether fn is the Emit method of
// kloc/internal/trace.Tracer.
func isTracerEmit(fn *types.Func) bool {
	if fn.Name() != "Emit" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Tracer" && obj.Pkg() != nil && obj.Pkg().Path() == tracePkgPath
}

// isTraceName reports whether t is kloc/internal/trace.Name.
func isTraceName(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Name" && obj.Pkg() != nil && obj.Pkg().Path() == tracePkgPath
}

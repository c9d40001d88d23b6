package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Ownership is the parallel-readiness classifier gating the sharded
// engine refactor (ROADMAP item 2): before `internal/sim` may run
// logical CPUs on concurrent goroutines, every piece of mutable state
// the engine can reach must say who owns it. The analyzer inventories
// every package-level var and struct field declared in the engine
// packages (sim, kernel, memsim, percpu, metrics, trace) and
// classifies each into one of four ownership classes, driven by a
// `//klocs:owner=<lane|epoch|init|shared>` annotation on the
// declaration (or, as a default, on the enclosing `type` line) plus
// write-site inference over the whole module:
//
//   - lane:   per-CPU-confined — only the goroutine driving one lane
//     touches it (percpu.Accumulator lanes, the engine loop's cursor);
//   - epoch:  epoch-guarded — mutated only at barrier/epoch boundaries
//     where all lanes are quiescent (snapshot flushes, stats merges);
//   - init:   immutable after init — written only during construction
//     (New*/new*/init functions and their private helpers);
//   - shared: shared-mutable — concurrently reachable and mutable; the
//     refactor must synchronize it, so the class is an explicit debt
//     acknowledgement, never a default.
//
// Unannotated state with a post-init writer is the diagnostic: nothing
// may stay shared-mutable by omission. Unannotated state nothing
// writes after init is inferred `init` silently. Two honesty checks
// keep annotations from rotting: `owner=init` state with a post-init
// writer is a violation at the write site, and a lane/epoch/shared
// annotation on state with no detectable post-init writer is flagged
// as overclaiming (use owner=init or drop it).
//
// Write inference is syntactic but module-wide and alias-aware:
// assignment LHS chains, ++/--, address-of, delete/copy builtins, and
// pointer-receiver method calls on addressable values all count, and
// the `lane := a.lanes[cpu]; lane[cell]++` idiom attributes through
// the local alias. Writes landing in by-value copies of structs are
// discarded; writes through untracked raw pointers are (knowingly)
// invisible, as are mutations a callee performs on a slice passed by
// value — the checked-in PARALLEL_READINESS.md report this analyzer
// generates is reviewed, not trusted blind.
var Ownership = &ModuleAnalyzer{
	Name: "ownership",
	Doc:  "classify engine-reachable state into lane/epoch/init/shared ownership classes",
	Run:  runOwnership,
}

// ownerClass is one parallel-readiness ownership class.
type ownerClass uint8

const (
	ownerUnclassified ownerClass = iota
	ownerLane
	ownerEpoch
	ownerInit
	ownerShared
	// ownerInferredInit is unannotated state with no post-init writer.
	ownerInferredInit
)

func (c ownerClass) String() string {
	switch c {
	case ownerLane:
		return "lane (per-CPU-confined)"
	case ownerEpoch:
		return "epoch (epoch-guarded)"
	case ownerInit:
		return "init (immutable after init)"
	case ownerInferredInit:
		return "init (inferred: no post-init writer)"
	case ownerShared:
		return "shared (needs synchronization)"
	}
	return "UNCLASSIFIED (shared-mutable, unannotated)"
}

// ownerMarkers maps marker names to classes, in lookup priority order.
var ownerMarkers = [...]struct {
	name  string
	class ownerClass
}{
	{"owner=lane", ownerLane},
	{"owner=epoch", ownerEpoch},
	{"owner=init", ownerInit},
	{"owner=shared", ownerShared},
}

// ownershipScopePaths are the engine packages whose declared state the
// analyzer classifies (writes are still collected module-wide).
var ownershipScopePaths = map[string]bool{
	"kloc/internal/sim":     true,
	"kloc/internal/kernel":  true,
	"kloc/internal/memsim":  true,
	"kloc/internal/percpu":  true,
	"kloc/internal/metrics": true,
	"kloc/internal/trace":   true,
}

func ownershipInScope(path string) bool {
	return ownershipScopePaths[path] || strings.HasPrefix(path, "fixture/")
}

// A writerRef is one deduplicated post-init writer of a state entry.
type writerRef struct {
	label string
	pos   token.Pos
	// reachable reports whether the writer is reachable from the
	// module's entry surface — the refactor cares most about these.
	reachable bool
}

// A stateEntry is one classified package-level var or struct field.
type stateEntry struct {
	v       *types.Var
	pkgPath string
	// owner is the declaring type's name; empty for package vars.
	owner string
	label string
	pos   token.Pos
	// typePos is the enclosing type declaration, consulted for a
	// struct-level default annotation; NoPos for package vars.
	typePos   token.Pos
	class     ownerClass
	annotated bool
	// writers lists post-init writers in source order.
	writers []writerRef
}

func runOwnership(pass *ModulePass) error {
	entries := ownershipInventory(pass.Module, pass.Marked)
	for i := range entries {
		e := &entries[i]
		switch {
		case e.class == ownerUnclassified:
			w := e.writers[0]
			for _, cand := range e.writers {
				if cand.reachable {
					w = cand
					break
				}
			}
			reach := ""
			if w.reachable {
				reach = "; the writer is reachable from the engine entry surface"
			}
			pass.Reportf(e.pos, "%s is shared-mutable (unannotated): written outside the init phase by %s%s — classify it with //klocs:owner=<lane|epoch|init|shared>", e.label, w.label, reach)
		case e.class == ownerInit && len(e.writers) > 0:
			w := e.writers[0]
			pass.Reportf(w.pos, "%s is annotated //klocs:owner=init (immutable after init) but %s writes it outside the init phase", e.label, w.label)
		case e.annotated && len(e.writers) == 0 && e.class != ownerInit:
			pass.Reportf(e.pos, "%s is annotated //klocs:%s but has no detectable post-init writer — annotate it owner=init or drop the annotation", e.label, ownerMarkerName(e.class))
		}
	}
	return nil
}

// ownerMarkerName returns the marker spelling for an annotated class.
func ownerMarkerName(c ownerClass) string {
	for _, om := range ownerMarkers {
		if om.class == c {
			return om.name
		}
	}
	return "owner=?"
}

// ownershipInventory builds and classifies the state inventory. marked
// is the annotation lookup (ModulePass.Marked in analyzer runs, so
// annotation hits feed the suppression audit).
func ownershipInventory(m *Module, marked func(name string, pos token.Pos) bool) []stateEntry {
	writes := collectStateWrites(m)
	initFns := initPhaseNodes(m.Graph)
	reached := m.Graph.Reachable(entrySurface(m.Graph))

	var entries []stateEntry
	pkgs := append([]*Package(nil), m.Packages...)
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	for _, pkg := range pkgs {
		if !ownershipInScope(pkg.Path) {
			continue
		}
		pkgName := pkg.Types.Name()
		scope := pkg.Types.Scope()
		names := scope.Names()
		// Package vars first, then types in name order (fields follow
		// declaration order) — the report reads in this order.
		for _, name := range names {
			v, ok := scope.Lookup(name).(*types.Var)
			if !ok {
				continue
			}
			entries = append(entries, stateEntry{
				v:       v,
				pkgPath: pkg.Path,
				label:   pkgName + "." + name,
				pos:     v.Pos(),
			})
		}
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				entries = append(entries, stateEntry{
					v:       f,
					pkgPath: pkg.Path,
					owner:   name,
					label:   pkgName + "." + name + "." + f.Name(),
					pos:     f.Pos(),
					typePos: tn.Pos(),
				})
			}
		}
	}
	for i := range entries {
		classifyEntry(&entries[i], marked, writes, initFns, reached)
	}
	return entries
}

// classifyEntry resolves one entry's annotation, post-init writers,
// and final class.
func classifyEntry(e *stateEntry, marked func(string, token.Pos) bool, writes map[*types.Var][]stateWrite, initFns map[*FuncNode]bool, reached map[*FuncNode]bool) {
	for _, om := range ownerMarkers {
		if marked(om.name, e.pos) {
			e.class, e.annotated = om.class, true
			break
		}
	}
	if !e.annotated && e.typePos.IsValid() {
		// Struct-level default on the `type Foo struct {` line.
		for _, om := range ownerMarkers {
			if marked(om.name, e.typePos) {
				e.class, e.annotated = om.class, true
				break
			}
		}
	}
	ws := append([]stateWrite(nil), writes[e.v]...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].pos < ws[j].pos })
	byLabel := make(map[string]int)
	for _, w := range ws {
		if w.fn == nil || initFns[w.fn] {
			continue // init-phase write
		}
		label := w.fn.String()
		if idx, ok := byLabel[label]; ok {
			if reached[w.fn] {
				e.writers[idx].reachable = true
			}
			continue
		}
		byLabel[label] = len(e.writers)
		e.writers = append(e.writers, writerRef{label: label, pos: w.pos, reachable: reached[w.fn]})
	}
	if !e.annotated {
		if len(e.writers) == 0 {
			e.class = ownerInferredInit
		} else {
			e.class = ownerUnclassified
		}
	}
}

// entrySurface returns the module's entry-surface roots — exported
// functions and methods, main, and init — shared by tracereach and the
// parallel-readiness analyzers. Package-level initializer references
// are rooted by Reachable itself.
func entrySurface(g *CallGraph) []*FuncNode {
	var roots []*FuncNode
	for _, n := range g.Nodes {
		if n.Obj == nil {
			continue
		}
		if n.Obj.Exported() || n.Obj.Name() == "main" || n.Obj.Name() == "init" {
			roots = append(roots, n)
		}
	}
	return roots
}

// initPhaseNodes identifies the functions whose writes count as
// initialization: New*/new* constructors and init functions, function
// literals lexically inside them, and — by closure over the call graph
// — unexported helpers called exclusively from init-phase functions
// whose value is never taken (a stored hook runs at an unknown time,
// so taken functions never inherit init phase). A constructor called
// at runtime still counts as init: a freshly constructed object is
// unshared at birth.
func initPhaseNodes(g *CallGraph) map[*FuncNode]bool {
	isInit := make(map[*FuncNode]bool)
	for _, n := range g.Nodes {
		if n.Obj == nil {
			continue
		}
		name := n.Obj.Name()
		if !strings.HasPrefix(name, "New") && !strings.HasPrefix(name, "new") && name != "init" {
			continue
		}
		isInit[n] = true
		if body := n.Body(); body != nil {
			ast.Inspect(body, func(m ast.Node) bool {
				if lit, ok := m.(*ast.FuncLit); ok {
					if ln := g.NodeOfLit(lit); ln != nil {
						isInit[ln] = true
					}
				}
				return true
			})
		}
	}
	callers := make(map[*FuncNode][]*FuncNode)
	refTaken := make(map[*FuncNode]bool)
	for _, n := range g.Nodes {
		for _, site := range n.Calls {
			for _, m := range site.Callees {
				callers[m] = append(callers[m], n)
			}
		}
		for _, m := range n.Refs {
			refTaken[m] = true
		}
	}
	for _, m := range g.PackageRefs {
		refTaken[m] = true
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if isInit[n] || refTaken[n] || n.Obj == nil || n.Obj.Exported() || n.Obj.Name() == "main" {
				continue
			}
			cs := callers[n]
			if len(cs) == 0 {
				continue
			}
			all := true
			for _, c := range cs {
				if !isInit[c] {
					all = false
					break
				}
			}
			if all {
				isInit[n] = true
				changed = true
			}
		}
	}
	return isInit
}

// A stateWrite is one detected write (or address exposure) of a
// package var or struct field. fn is nil for writes in package-level
// initializer expressions (always init-phase).
type stateWrite struct {
	fn  *FuncNode
	pos token.Pos
}

// collectStateWrites walks every function body in the module and
// attributes writes to the package vars and struct fields they land
// in.
func collectStateWrites(m *Module) map[*types.Var][]stateWrite {
	writes := make(map[*types.Var][]stateWrite)
	g := m.Graph
	seenLit := make(map[*ast.FuncLit]bool)
	for _, n := range g.Nodes {
		if n.Decl == nil || n.Decl.Body == nil {
			continue
		}
		walkWrites(g, n.Pkg.Info, n, n.Decl.Body, writes, seenLit)
	}
	// Function literals at package scope (var hooks) have no enclosing
	// decl; outer literals sort before their nested ones, so each is
	// walked exactly once.
	for _, n := range g.Nodes {
		if n.Lit != nil && !seenLit[n.Lit] {
			seenLit[n.Lit] = true
			walkWrites(g, n.Pkg.Info, n, n.Lit.Body, writes, seenLit)
		}
	}
	return writes
}

// walkWrites records the writes in one body, switching attribution at
// nested function literal boundaries.
func walkWrites(g *CallGraph, info *types.Info, cur *FuncNode, body ast.Node, writes map[*types.Var][]stateWrite, seenLit map[*ast.FuncLit]bool) {
	aliases := localStateAliases(info, body)
	record := func(fn *FuncNode, pos token.Pos, vars []*types.Var) {
		for _, v := range vars {
			writes[v] = append(writes[v], stateWrite{fn: fn, pos: pos})
		}
	}
	var walk func(n ast.Node, fn *FuncNode) bool
	walk = func(n ast.Node, fn *FuncNode) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			seenLit[x] = true
			target := g.NodeOfLit(x)
			if target == nil {
				target = fn
			}
			ast.Inspect(x.Body, func(m ast.Node) bool { return walk(m, target) })
			return false
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range x.Lhs {
				record(fn, lhs.Pos(), stateRefs(info, aliases, lhs, false))
			}
		case *ast.IncDecStmt:
			record(fn, x.Pos(), stateRefs(info, aliases, x.X, false))
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				record(fn, x.Pos(), stateRefs(info, aliases, x.X, false))
			}
		case *ast.CallExpr:
			recordCallWrites(info, aliases, fn, x, record)
		}
		return true
	}
	ast.Inspect(body, func(n ast.Node) bool { return walk(n, cur) })
}

// recordCallWrites handles the two call forms that mutate state:
// delete/copy builtins and pointer-receiver method calls on
// addressable non-pointer bases (k.Stats.Allocs.Inc()).
func recordCallWrites(info *types.Info, aliases map[*types.Var][]*types.Var, fn *FuncNode, call *ast.CallExpr, record func(*FuncNode, token.Pos, []*types.Var)) {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[f].(*types.Builtin); ok && (b.Name() == "delete" || b.Name() == "copy") && len(call.Args) > 0 {
			record(fn, call.Pos(), stateRefs(info, aliases, call.Args[0], true))
		}
	case *ast.SelectorExpr:
		sel, ok := info.Selections[f]
		if !ok || sel.Kind() != types.MethodVal {
			return
		}
		mfn, ok := sel.Obj().(*types.Func)
		if !ok {
			return
		}
		sig, ok := mfn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return
		}
		if _, isPtr := sig.Recv().Type().(*types.Pointer); !isPtr {
			return
		}
		baseT := info.TypeOf(f.X)
		if baseT == nil {
			return
		}
		if _, isPtr := baseT.Underlying().(*types.Pointer); isPtr {
			return
		}
		record(fn, call.Pos(), stateRefs(info, aliases, f.X, false))
	}
}

// isPackageVar reports whether v is a package-level variable.
func isPackageVar(v *types.Var) bool {
	return !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// stateRefs resolves an lvalue (assignment LHS, ++/-- operand,
// &-operand, mutated call argument) to the package vars and struct
// fields whose stored state the write lands in. Selector chains
// through struct values attribute to every enclosing field; chains
// stopping at a pointer attribute through a local alias when one is
// known. indexed marks that the write mutates element contents
// (backing arrays are shared even through by-value copies); a plain
// value-typed local root otherwise means the write lands in a local
// copy and the refs are discarded.
func stateRefs(info *types.Info, aliases map[*types.Var][]*types.Var, e ast.Expr, indexed bool) []*types.Var {
	var out []*types.Var
	discard := false
	var walk func(e ast.Expr, indexed bool)
	walk = func(e ast.Expr, indexed bool) {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			walk(x.X, true)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				walk(x.X, indexed)
			}
		case *ast.StarExpr:
			// Write through a raw pointer: target unknown.
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				v, ok := sel.Obj().(*types.Var)
				if !ok {
					return
				}
				out = append(out, v)
				if bt := info.TypeOf(x.X); bt != nil {
					if _, isStruct := bt.Underlying().(*types.Struct); isStruct {
						// The field's storage lives inline in the base
						// value: the write mutates it too.
						walk(x.X, indexed)
						return
					}
				}
				// Pointer (or other indirected) base: attribute through
				// a local alias when the base is one.
				if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
					if bv, ok := info.Uses[id].(*types.Var); ok {
						out = append(out, aliases[bv]...)
					}
				}
				return
			}
			// Qualified package var: pkg.Var.
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && isPackageVar(v) {
				out = append(out, v)
			}
		case *ast.Ident:
			v, ok := info.Uses[x].(*types.Var)
			if !ok {
				return
			}
			if isPackageVar(v) {
				out = append(out, v)
				return
			}
			if extra, ok := aliases[v]; ok {
				out = append(out, extra...)
				return
			}
			switch v.Type().Underlying().(type) {
			case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
				// Reference-typed local with unknown origin: the write
				// may land in shared heap we cannot attribute.
			default:
				if !indexed {
					// Plain value local: the write mutates a copy.
					discard = true
				}
			}
		}
	}
	walk(e, indexed)
	if discard {
		return nil
	}
	return out
}

// localStateAliases maps reference-typed locals (pointers, slices,
// maps) to the state refs of their defining expressions, so writes
// through the `lane := a.lanes[cpu]; lane[cell]++` idiom still
// attribute to the field. A local with conflicting or unattributable
// definitions resolves to nothing.
func localStateAliases(info *types.Info, body ast.Node) map[*types.Var][]*types.Var {
	aliases := make(map[*types.Var][]*types.Var)
	conflicted := make(map[*types.Var]bool)
	add := func(id *ast.Ident, src ast.Expr) {
		if id == nil || id.Name == "_" {
			return
		}
		var v *types.Var
		if d, ok := info.Defs[id].(*types.Var); ok {
			v = d
		} else if u, ok := info.Uses[id].(*types.Var); ok {
			v = u
		}
		if v == nil || conflicted[v] || v.IsField() || isPackageVar(v) {
			return
		}
		switch v.Type().Underlying().(type) {
		case *types.Pointer, *types.Slice, *types.Map:
		default:
			return
		}
		var refs []*types.Var
		if src != nil {
			refs = stateRefs(info, nil, src, true)
		}
		if prev, ok := aliases[v]; ok {
			if !sameVars(prev, refs) {
				conflicted[v] = true
				delete(aliases, v)
			}
			return
		}
		if len(refs) > 0 {
			refs = refs[:1:1] // innermost field only: the element/pointee holder
			aliases[v] = refs
		} else {
			conflicted[v] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					add(id, s.Rhs[i])
				}
			}
		case *ast.GenDecl:
			for _, spec := range s.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != len(vs.Values) {
					continue
				}
				for i, name := range vs.Names {
					add(name, vs.Values[i])
				}
			}
		case *ast.RangeStmt:
			if id, ok := s.Value.(*ast.Ident); ok {
				add(id, s.X)
			}
		}
		return true
	})
	return aliases
}

func sameVars(a, b []*types.Var) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// OwnershipReport renders the deterministic PARALLEL_READINESS.md
// inventory: the reviewed spec the sharded-engine refactor implements
// against. Output depends only on module source, so a doubled run is
// byte-identical and CI can cmp code against the checked-in report.
func OwnershipReport(m *Module) []byte {
	pass := &ModulePass{Analyzer: Ownership, Module: m}
	entries := ownershipInventory(m, pass.Marked)

	var b bytes.Buffer
	b.WriteString("# Parallel readiness — ownership inventory\n\n")
	b.WriteString("Generated by `kloclint -ownership-report` (regenerate with `make readiness`).\n")
	b.WriteString("DO NOT EDIT: `make lint` fails when this file drifts from the code.\n\n")
	b.WriteString("This inventory classifies every package-level var and struct field\n")
	b.WriteString("declared in the engine packages (sim, kernel, memsim, percpu, metrics,\n")
	b.WriteString("trace) by who may mutate it once the engine shards into per-CPU lanes\n")
	b.WriteString("(ROADMAP item 2). It is the spec that refactor implements against:\n")
	b.WriteString("`lane` state moves into per-lane shards, `epoch` state is only touched\n")
	b.WriteString("at barrier quiescence, `init` state needs no synchronization, and every\n")
	b.WriteString("`shared` entry is an explicit synchronization work item. The `ownership`\n")
	b.WriteString("analyzer rejects unannotated mutable state, so this table is exhaustive.\n\n")
	b.WriteString("## Ownership classes\n\n")
	b.WriteString("| class | meaning | refactor obligation |\n|---|---|---|\n")
	b.WriteString("| `lane` | per-CPU-confined: only the owning lane's goroutine touches it | move into the lane shard |\n")
	b.WriteString("| `epoch` | mutated only at epoch/barrier quiescence points | guard with the epoch barrier |\n")
	b.WriteString("| `init` | immutable after construction (annotated or inferred) | share freely |\n")
	b.WriteString("| `shared` | concurrently reachable and mutable | synchronize explicitly |\n\n")

	counts := map[ownerClass]int{}
	byPkg := make(map[string][]*stateEntry)
	var pkgOrder []string
	for i := range entries {
		e := &entries[i]
		counts[e.class]++
		if _, ok := byPkg[e.pkgPath]; !ok {
			pkgOrder = append(pkgOrder, e.pkgPath)
		}
		byPkg[e.pkgPath] = append(byPkg[e.pkgPath], e)
	}
	b.WriteString("## Summary\n\n| class | entries |\n|---|---:|\n")
	for _, c := range []ownerClass{ownerLane, ownerEpoch, ownerInit, ownerInferredInit, ownerShared, ownerUnclassified} {
		if c == ownerUnclassified && counts[c] == 0 {
			continue
		}
		fmt.Fprintf(&b, "| %s | %d |\n", c, counts[c])
	}
	b.WriteString("\n")

	for _, path := range pkgOrder {
		fmt.Fprintf(&b, "## %s\n\n", path)
		b.WriteString("| state | class | post-init writers |\n|---|---|---|\n")
		for _, e := range byPkg[path] {
			label := "`" + e.label + "`"
			if e.owner == "" {
				label += " (var)"
			}
			fmt.Fprintf(&b, "| %s | %s | %s |\n", label, e.class, writerCell(e.writers))
		}
		b.WriteString("\n")
	}

	b.WriteString("## RNG streams\n\n")
	rngs := collectRNGFieldReport(m, pass.Marked)
	if len(rngs) == 0 {
		b.WriteString("No struct fields hold `*sim.RNG` streams.\n")
	} else {
		b.WriteString("Every `*sim.RNG`-typed field module-wide, with its lane-confinement\n")
		b.WriteString("owner (the `rngflow` analyzer forbids unannotated or shared streams):\n\n")
		b.WriteString("| field | owner |\n|---|---|\n")
		for _, r := range rngs {
			fmt.Fprintf(&b, "| `%s` | %s |\n", r.label, r.owner)
		}
	}
	return b.Bytes()
}

// moduleStateLabels names every package var ("pkg.Var") and struct
// field ("pkg.Type.field") in the module, for rngflow's diagnostics.
func moduleStateLabels(m *Module) map[*types.Var]string {
	labels := make(map[*types.Var]string)
	for _, pkg := range m.Packages {
		pkgName := pkg.Types.Name()
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Var:
				labels[obj] = pkgName + "." + name
			case *types.TypeName:
				if obj.IsAlias() {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					labels[st.Field(i)] = pkgName + "." + name + "." + st.Field(i).Name()
				}
			}
		}
	}
	return labels
}

// writerCell formats a writers column: up to three labels plus a
// count, em-dash when none.
func writerCell(ws []writerRef) string {
	if len(ws) == 0 {
		return "—"
	}
	var parts []string
	for i, w := range ws {
		if i == 3 {
			parts = append(parts, fmt.Sprintf("(+%d more)", len(ws)-3))
			break
		}
		parts = append(parts, "`"+w.label+"`")
	}
	return strings.Join(parts, ", ")
}

// OwnershipSharedCount is the parallel-readiness ratchet metric: the
// number of inventory entries still classified shared or unclassified
// — the state the sharded engine has no story for yet. kloclint
// -ownership-ratchet compares it against the checked-in baseline and
// fails when it grows; lowering the baseline is the only allowed
// direction.
func OwnershipSharedCount(m *Module) int {
	pass := &ModulePass{Analyzer: Ownership, Module: m}
	n := 0
	for _, e := range ownershipInventory(m, pass.Marked) {
		if e.class == ownerShared || e.class == ownerUnclassified {
			n++
		}
	}
	return n
}

package lorel

import (
	"errors"

	"repro/internal/oem"
	"repro/internal/symbol"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// This file is the evaluator's path expander: a push-style depth-first
// walker that yields matches one at a time instead of materializing
// []pathResult frontiers. Consumers stop the walk early by returning
// errStop from the yield — `exists` stops at its first witness,
// enumerate streams generator bindings into the next generator without
// holding a candidate slice, and the planned executor's existential
// search stops expanding the instant a completion satisfies.
//
// The walker is order-identical to a breadth-first frontier expansion:
// the DFS emission order at depth k is the concatenation, over depth
// k-1 matches in order, of each match's expansions — exactly the order
// a BFS frontier loop appends them — and both apply the same per-step
// first-occurrence dedup, so the dedup decisions coincide too. The
// package tests keep such a BFS as the reference oracle and hold the
// walker byte-identical to it.
//
// One semantic note, documented in docs/eval.md: early termination can
// skip path-expansion work a full expansion would have done after the
// stopping point, so an error lurking past the first witness of an
// `exists` is not surfaced. This mirrors the planner's contract (pushed
// conjuncts must be pure and error-free for reordering) — the set of
// *successful* results is unchanged; only doomed work is skipped.

// errStop is the sentinel a pathYield returns to end a walk early. It
// never escapes the package: walkPath returns it to the caller that
// injected it, which converts it back to a normal stop.
var errStop = errors.New("lorel: stop iteration")

// pathYield consumes one path match. Returning errStop ends the walk
// early and successfully; any other error aborts it.
type pathYield func(pathResult) error

// stepCtx is the per-step state of one walk: the resolved label matcher
// (symbol id, canonical pattern) and the step's persistent dedup sets,
// resolved once per walk instead of once per binding.
type stepCtx struct {
	step  *PathStep
	binds bool // step binds annotation variables; dedup must not apply
	exact bool // label matches by equality (no '%' glob)
	// sym is the exact label's symbol, or symbol.None when the label was
	// never interned — and so labels no arc, since every arc constructor
	// interns its label.
	sym   symbol.ID
	canon string // canonical pattern for fallback equality scans

	// Per-step first-occurrence dedup: starts on bare NodeIDs under a
	// shared as-of template and migrates to full visitKeys only if a
	// binding breaks the pattern.
	ids map[oem.NodeID]bool
	gen map[visitKey]bool
	ref binding
}

func (st *stepCtx) init(s *PathStep) {
	st.step = s
	st.binds = stepBindsVars(s)
	if s.Group == nil && !s.Hash {
		st.exact = exactLabel(s)
		st.canon = s.Label
		if st.exact {
			if id, ok := symbol.Lookup(s.Label); ok {
				st.sym = id
				st.canon = symbol.String(id)
			}
		}
	}
}

// match reports whether an arc label matches the step. Exact patterns
// compare against the canonical string, so matches against interned
// arc labels hit the runtime's pointer-equality fast path.
func (st *stepCtx) match(label string) bool {
	if st.exact {
		return st.canon == label
	}
	return value.Str(label).Like(st.step.Label)
}

// fresh reports whether b is the step's first occurrence of its target.
func (st *stepCtx) fresh(b binding) bool {
	if st.gen == nil && b.kind == bNode {
		if st.ids == nil {
			st.ids = make(map[oem.NodeID]bool, 16)
			st.ref = b
		}
		if b.hasAsOf == st.ref.hasAsOf && (!b.hasAsOf || b.asOf == st.ref.asOf) {
			if st.ids[b.id] {
				return false
			}
			st.ids[b.id] = true
			return true
		}
	}
	if st.gen == nil {
		st.gen = make(map[visitKey]bool, len(st.ids)+16)
		for id := range st.ids {
			rb := st.ref
			rb.id = id
			st.gen[rb.visitKey()] = true
		}
	}
	k := b.visitKey()
	if st.gen[k] {
		return false
	}
	st.gen[k] = true
	return true
}

// pathWalker carries one walk's hoisted state: the head graph's optional
// fast-path interfaces (asserted once per walk, not once per binding)
// and the per-step contexts. All bindings reached from one head share
// its graph, so the hoist is sound.
type pathWalker struct {
	ev    *evaluation
	yield pathYield
	steps []stepCtx

	g     Graph
	ts    TimeSeeker
	hasTS bool
	ss    SymSeeker
	hasSS bool
}

// walkPath streams the matches of p under en to yield, in breadth-first
// frontier order. yield returning errStop ends the walk early; walkPath
// returns errStop in that case so the caller can distinguish its own stop
// from a real error.
func (ev *evaluation) walkPath(en *env, p *PathExpr, yield pathYield) error {
	var head pathResult
	if b, ok := en.lookup(p.Head); ok {
		head = pathResult{b: b, env: en}
	} else if g, ok := ev.graphs[p.Head]; ok {
		head = pathResult{b: nodeBinding(g, g.Root()), env: en}
	} else {
		return errf(p.P, "unknown name %q (neither a variable in scope nor a registered database)", p.Head)
	}
	if len(p.Steps) == 0 {
		return yield(head)
	}
	w := pathWalker{ev: ev, yield: yield, steps: make([]stepCtx, len(p.Steps))}
	for i, s := range p.Steps {
		w.steps[i].init(s)
	}
	if head.b.kind == bNode {
		w.g = head.b.g
		w.ts, w.hasTS = w.g.(TimeSeeker)
		w.ss, w.hasSS = w.g.(SymSeeker)
	}
	return w.walk(head, 0)
}

// collectPath materializes the matches of p under en in walk order, for
// the callers that need the whole set: operand evaluation and the outer
// generator a parallel evaluation partitions.
func (ev *evaluation) collectPath(en *env, p *PathExpr) ([]pathResult, error) {
	var out []pathResult
	err := ev.walkPath(en, p, func(r pathResult) error {
		out = append(out, r)
		return nil
	})
	return out, err
}

// walk expands cur through the steps from depth on, yielding completed
// matches.
func (w *pathWalker) walk(cur pathResult, depth int) error {
	if depth == len(w.steps) {
		return w.yield(cur)
	}
	if err := w.ev.checkCancel(); err != nil {
		return err
	}
	return w.expand(cur, depth)
}

// deliver applies depth's dedup to one reached binding and recurses.
func (w *pathWalker) deliver(r pathResult, depth int) error {
	st := &w.steps[depth]
	if !st.binds && !st.fresh(r.b) {
		return nil
	}
	return w.walk(r, depth+1)
}

// liveArcs is evaluation.liveArcs with the TimeSeeker assertion hoisted.
func (w *pathWalker) liveArcs(b binding, n oem.NodeID) []oem.Arc {
	if !b.hasAsOf {
		return w.g.Out(n)
	}
	if w.hasTS {
		return w.ts.OutAt(n, b.asOf)
	}
	var arcs []oem.Arc
	for _, a := range w.g.OutAll(n) {
		if w.g.ArcLiveAt(a, b.asOf) {
			arcs = append(arcs, a)
		}
	}
	return arcs
}

// expand applies one path step to one binding, delivering each reached
// binding.
func (w *pathWalker) expand(cur pathResult, depth int) error {
	if cur.b.kind != bNode {
		return nil // cannot traverse from a value or null
	}
	st := &w.steps[depth]
	step := st.step
	g := w.g

	// Regular path group: (a.b|c) with an optional quantifier. Groups
	// materialize their reached set (the quantifier closure needs it) and
	// stream the sorted result.
	if step.Group != nil {
		for _, r := range w.ev.expandGroup(nil, cur, step.Group) {
			if err := w.deliver(r, depth); err != nil {
				return err
			}
		}
		return nil
	}

	// '#' wildcard: all nodes reachable in zero or more steps, streamed
	// in stack order — an exists over guide.# stops the closure at its
	// first witness.
	if step.Hash {
		seen := map[oem.NodeID]bool{cur.b.id: true}
		stack := []oem.NodeID{cur.b.id}
		for len(stack) > 0 {
			if err := w.ev.checkCancel(); err != nil {
				return err
			}
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nb := cur.b
			nb.id = n
			if err := w.deliver(pathResult{b: nb, env: cur.env}, depth); err != nil {
				return err
			}
			for _, a := range w.liveArcs(cur.b, n) {
				if !seen[a.Child] {
					seen[a.Child] = true
					stack = append(stack, a.Child)
				}
			}
		}
		return nil
	}

	switch {
	case step.Arc == nil:
		// Exact-label steps over the current snapshot resolve from the
		// adjacency index when the graph provides one; the arcs come back
		// in the same insertion order the scan below would produce.
		if st.exact && !cur.b.hasAsOf && w.hasSS {
			for _, a := range w.ss.OutLabeledSym(cur.b.id, st.sym) {
				if err := w.child(cur, depth, a.Child, cur.env, nil); err != nil {
					return err
				}
			}
			return nil
		}
		for _, a := range w.liveArcs(cur.b, cur.b.id) {
			if !st.match(a.Label) {
				continue
			}
			if err := w.child(cur, depth, a.Child, cur.env, nil); err != nil {
				return err
			}
		}
	case step.Arc.Op == OpAdd || step.Arc.Op == OpRem:
		wantKind := annotKindFor(step.Arc.Op)
		// Exact-label annotation steps read the (parent, label) slice of
		// the full arc relation instead of scanning every arc ever.
		var arcs []oem.Arc
		if st.exact && w.hasSS {
			arcs = w.ss.OutAllLabeledSym(cur.b.id, st.sym)
		} else {
			arcs = g.OutAll(cur.b.id)
		}
		for _, a := range arcs {
			if !st.match(a.Label) {
				continue
			}
			for _, ann := range g.ArcAnnots(a) {
				if ann.Kind != wantKind {
					continue
				}
				en := cur.env
				if step.Arc.AtVar != "" {
					en = en.extend(step.Arc.AtVar, valueBinding(value.Time(ann.At)))
				}
				if err := w.child(cur, depth, a.Child, en, nil); err != nil {
					return err
				}
			}
		}
	case step.Arc.Op == OpAt:
		t, ok, err := w.ev.evalTime(cur.env, step.Arc.AtExpr)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if w.hasTS {
			for _, a := range w.ts.OutAt(cur.b.id, t) {
				if !st.match(a.Label) {
					continue
				}
				if err := w.child(cur, depth, a.Child, cur.env, &t); err != nil {
					return err
				}
			}
			return nil
		}
		for _, a := range g.OutAll(cur.b.id) {
			if !st.match(a.Label) {
				continue
			}
			if g.ArcLiveAt(a, t) {
				if err := w.child(cur, depth, a.Child, cur.env, &t); err != nil {
					return err
				}
			}
		}
	default:
		return errf(step.P, "%s annotation cannot precede an arc label", step.Arc.Op)
	}
	return nil
}

// child applies the step's node annotation to one reached child and
// delivers the survivors.
func (w *pathWalker) child(cur pathResult, depth int, id oem.NodeID, en *env, asOf *timestamp.Time) error {
	nb := cur.b
	nb.id = id
	if asOf != nil {
		nb.hasAsOf = true
		nb.asOf = *asOf
	}
	r := pathResult{b: nb, env: en}
	ann := w.steps[depth].step.Node
	if ann == nil {
		return w.deliver(r, depth)
	}
	g := w.g
	switch ann.Op {
	case OpCre:
		ct, ok := g.CreTime(r.b.id)
		if !ok {
			return nil
		}
		if ann.AtVar != "" {
			r.env = r.env.extend(ann.AtVar, valueBinding(value.Time(ct)))
		}
		return w.deliver(r, depth)
	case OpUpd:
		for _, u := range g.UpdTriples(r.b.id) {
			en := r.env
			if ann.AtVar != "" {
				en = en.extend(ann.AtVar, valueBinding(value.Time(u.At)))
			}
			if ann.FromVar != "" {
				en = en.extend(ann.FromVar, valueBinding(u.Old))
			}
			if ann.ToVar != "" {
				en = en.extend(ann.ToVar, valueBinding(u.New))
			}
			if err := w.deliver(pathResult{b: r.b, env: en}, depth); err != nil {
				return err
			}
		}
		return nil
	case OpAt:
		t, ok, err := w.ev.evalTime(r.env, ann.AtExpr)
		if err != nil || !ok {
			return err
		}
		r.b.hasAsOf = true
		r.b.asOf = t
		return w.deliver(r, depth)
	default:
		return errf(ann.P, "%s annotation cannot follow a label", ann.Op)
	}
}

// nullBind extends en for an empty existential generator: the range
// variable and the annotation variables its path would have bound go to
// null — except names already bound in the enclosing scope, which must
// stay visible. (Null-binding a name an earlier generator bound would
// shadow a real binding and silently falsify predicates over it.)
func nullBind(en *env, g FromItem) *env {
	nen := en.extend(g.Var, binding{kind: bNull})
	for _, v := range pathAnnotVars(g.Path) {
		if _, bound := en.lookup(v); bound {
			continue
		}
		nen = nen.extend(v, binding{kind: bNull})
	}
	return nen
}

package lorel

import (
	"sort"
	"strings"

	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// This file is the path-expansion reference oracle: a breadth-first
// evaluator that materializes each step's whole frontier before the next
// step, matching labels by scanning Out/OutAll instead of probing a label
// index (regular groups included: oracleGroup scans where the production
// expandGroup probes the symbol index). It was the production expander before the streaming walker in
// stream.go replaced it; the tests hold walkPath byte-identical to it,
// match order and environments included.

// evalPath evaluates a path expression in an environment.
func (ev *evaluation) evalPath(en *env, p *PathExpr) ([]pathResult, error) {
	var frontier []pathResult
	if b, ok := en.lookup(p.Head); ok {
		frontier = []pathResult{{b: b, env: en}}
	} else if g, ok := ev.graphs[p.Head]; ok {
		frontier = []pathResult{{b: nodeBinding(g, g.Root()), env: en}}
	} else {
		return nil, errf(p.P, "unknown name %q (neither a variable in scope nor a registered database)", p.Head)
	}
	for _, step := range p.Steps {
		next := make([]pathResult, 0, len(frontier))
		bindsVars := stepBindsVars(step)

		// Dedup state. Frontiers are overwhelmingly uniform — node
		// bindings sharing one as-of state — so dedup starts on bare
		// NodeIDs and migrates to full visitKeys only if a binding breaks
		// the pattern.
		var (
			ids map[oem.NodeID]bool
			gen map[visitKey]bool
			ref binding // as-of template shared by every entry in ids
		)
		fresh := func(b binding) bool {
			if gen == nil && b.kind == bNode {
				if ids == nil {
					ids = make(map[oem.NodeID]bool, 2*len(frontier))
					ref = b
				}
				if b.hasAsOf == ref.hasAsOf && (!b.hasAsOf || b.asOf == ref.asOf) {
					if ids[b.id] {
						return false
					}
					ids[b.id] = true
					return true
				}
			}
			if gen == nil {
				gen = make(map[visitKey]bool, len(ids)+16)
				for id := range ids {
					rb := ref
					rb.id = id
					gen[rb.visitKey()] = true
				}
			}
			k := b.visitKey()
			if gen[k] {
				return false
			}
			gen[k] = true
			return true
		}

		for _, cur := range frontier {
			if err := ev.checkCancel(); err != nil {
				return nil, err
			}
			start := len(next)
			var err error
			next, err = ev.expandStep(next, cur, step)
			if err != nil {
				return nil, err
			}
			if !bindsVars {
				// Environments are unchanged, so identical targets from
				// different parents are redundant.
				kept := next[:start]
				for _, r := range next[start:] {
					if !fresh(r.b) {
						continue
					}
					kept = append(kept, r)
				}
				next = kept
			}
		}
		frontier = next
		if len(frontier) == 0 {
			return nil, nil
		}
	}
	return frontier, nil
}

// expandStep applies one path step to one binding, appending the reached
// bindings to dst. The append style lets one evalPath step accumulate its
// whole frontier in a single slice instead of allocating a short-lived
// slice per expanded binding.
func (ev *evaluation) expandStep(dst []pathResult, cur pathResult, step *PathStep) ([]pathResult, error) {
	if cur.b.kind != bNode {
		return dst, nil // cannot traverse from a value or null
	}
	g := cur.b.g

	// Regular path group: (a.b|c) with an optional quantifier.
	if step.Group != nil {
		return ev.oracleGroup(dst, cur, step.Group), nil
	}

	// '#' wildcard: all nodes reachable in zero or more steps.
	if step.Hash {
		out := dst
		seen := map[oem.NodeID]bool{cur.b.id: true}
		stack := []oem.NodeID{cur.b.id}
		for len(stack) > 0 {
			if err := ev.checkCancel(); err != nil {
				return dst, err
			}
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nb := cur.b
			nb.id = n
			out = append(out, pathResult{b: nb, env: cur.env})
			for _, a := range ev.liveArcs(cur.b, g, n) {
				if !seen[a.Child] {
					seen[a.Child] = true
					stack = append(stack, a.Child)
				}
			}
		}
		return out, nil
	}

	// Select candidate (arc, envExtension) pairs according to the arc
	// annotation expression.
	out := dst
	appendChild := func(child oem.NodeID, en *env, asOf *timestamp.Time) error {
		nb := cur.b
		nb.id = child
		if asOf != nil {
			nb.hasAsOf = true
			nb.asOf = *asOf
		}
		var err error
		out, err = ev.applyNodeAnnot(out, pathResult{b: nb, env: en}, step.Node)
		return err
	}

	switch {
	case step.Arc == nil:
		for _, a := range ev.liveArcs(cur.b, g, cur.b.id) {
			if !labelMatch(step, a.Label) {
				continue
			}
			if err := appendChild(a.Child, cur.env, nil); err != nil {
				return nil, err
			}
		}
	case step.Arc.Op == OpAdd || step.Arc.Op == OpRem:
		wantKind := annotKindFor(step.Arc.Op)
		for _, a := range g.OutAll(cur.b.id) {
			if !labelMatch(step, a.Label) {
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
				if err := appendChild(a.Child, en, nil); err != nil {
					return nil, err
				}
			}
		}
	case step.Arc.Op == OpAt:
		t, ok, err := ev.evalTime(cur.env, step.Arc.AtExpr)
		if err != nil {
			return nil, err
		}
		if !ok {
			return dst, nil
		}
		// A materialized time-t view skips the per-arc annotation scans;
		// it is OutAll filtered by liveness, so filtering it by label
		// visits the same arcs in the same order as the fallback.
		if ts, ok := g.(TimeSeeker); ok {
			for _, a := range ts.OutAt(cur.b.id, t) {
				if !labelMatch(step, a.Label) {
					continue
				}
				if err := appendChild(a.Child, cur.env, &t); err != nil {
					return nil, err
				}
			}
			break
		}
		for _, a := range g.OutAll(cur.b.id) {
			if !labelMatch(step, a.Label) {
				continue
			}
			if g.ArcLiveAt(a, t) {
				if err := appendChild(a.Child, cur.env, &t); err != nil {
					return nil, err
				}
			}
		}
	default:
		return nil, errf(step.P, "%s annotation cannot precede an arc label", step.Arc.Op)
	}
	return out, nil
}

// applyNodeAnnot filters/expands one reached node through a node annotation
// expression, appending the surviving bindings to dst.
func (ev *evaluation) applyNodeAnnot(dst []pathResult, r pathResult, ann *AnnotExpr) ([]pathResult, error) {
	if ann == nil {
		return append(dst, r), nil
	}
	g := r.b.g
	switch ann.Op {
	case OpCre:
		ct, ok := g.CreTime(r.b.id)
		if !ok {
			return dst, nil
		}
		en := r.env
		if ann.AtVar != "" {
			en = en.extend(ann.AtVar, valueBinding(value.Time(ct)))
		}
		return append(dst, pathResult{b: r.b, env: en}), nil
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
			dst = append(dst, pathResult{b: r.b, env: en})
		}
		return dst, nil
	case OpAt:
		t, ok, err := ev.evalTime(r.env, ann.AtExpr)
		if err != nil || !ok {
			return dst, err
		}
		nb := r.b
		nb.hasAsOf = true
		nb.asOf = t
		return append(dst, pathResult{b: nb, env: r.env}), nil
	default:
		return dst, errf(ann.P, "%s annotation cannot follow a label", ann.Op)
	}
}

// labelMatch matches an arc label against a step: exact for quoted labels,
// with '%' globbing otherwise.
func labelMatch(step *PathStep, label string) bool {
	if exactLabel(step) {
		return step.Label == label
	}
	return value.Str(label).Like(step.Label)
}

// oracleGroup is expandGroup by scanning alone: every label, exact or
// glob, is matched against the live arcs of each frontier node, so group
// steps are held to an expansion that shares no code with the symbol
// seeker. Reached nodes come out in ascending id order, as expandGroup's.
func (ev *evaluation) oracleGroup(dst []pathResult, cur pathResult, grp *PathGroup) []pathResult {
	applyOnce := func(start map[oem.NodeID]bool) map[oem.NodeID]bool {
		out := make(map[oem.NodeID]bool)
		for _, alt := range grp.Alts {
			frontier := start
			for _, label := range alt {
				glob := strings.Contains(label, "%")
				next := make(map[oem.NodeID]bool)
				for n := range frontier {
					for _, a := range ev.liveArcs(cur.b, cur.b.g, n) {
						if (glob && value.Str(a.Label).Like(label)) || (!glob && a.Label == label) {
							next[a.Child] = true
						}
					}
				}
				frontier = next
			}
			for n := range frontier {
				out[n] = true
			}
		}
		return out
	}
	reached := map[oem.NodeID]bool{}
	if grp.Quant == '?' || grp.Quant == '*' {
		reached[cur.b.id] = true
	}
	frontier := map[oem.NodeID]bool{cur.b.id: true}
	for len(frontier) > 0 {
		next := map[oem.NodeID]bool{}
		for n := range applyOnce(frontier) {
			if grp.Quant != '*' && grp.Quant != '+' {
				reached[n] = true
			} else if !reached[n] {
				reached[n] = true
				next[n] = true
			}
		}
		frontier = next
	}
	ids := make([]oem.NodeID, 0, len(reached))
	for n := range reached {
		ids = append(ids, n)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, n := range ids {
		nb := cur.b
		nb.id = n
		dst = append(dst, pathResult{b: nb, env: cur.env})
	}
	return dst
}

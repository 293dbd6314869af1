package qss

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/change"
	"repro/internal/lorel"
	"repro/internal/oem"
	"repro/internal/value"
)

// pkgRoot is the root id of a packaged result: packageResult copies into
// oem.New(), whose root is the first id it allocates.
const pkgRoot oem.NodeID = 1

// pkgNode is one object of a packaged result: its packaged and source
// ids and its out-arcs, as a range of packageDiff's arc arena. It holds no
// pointers, so the walk's per-object records cost the collector nothing.
type pkgNode struct {
	id, src    oem.NodeID
	start, end int32
}

// packageDiff packages a stable-id source's polling result and diffs it
// against the current snapshot R_{i-1} in one pass over the result
// closure. It returns exactly what oemdiff.DiffIdentity(st.d.Current(),
// packageResult(snap, res)) returns, operation for operation and in the
// same order (creates and updates by id, then adds by parent, then
// removes by parent), along with the same remap additions, without
// building the packaged database: each visited object and its arcs are
// compared with the snapshot directly.
//
// The snapshot's objects the result no longer reaches are found by
// walking it from the children of removed arcs: R_{i-1} is reachable from
// its root, and an arc the result still holds leads to an object the
// result holds, so every object that left the result hangs below a
// removed arc.
func (st *subState) packageDiff(snap *oem.Database, res *lorel.Result) (change.Set, []remapPair, error) {
	prev := st.d.Current()
	if prev.Root() != pkgRoot {
		return nil, nil, fmt.Errorf("oemdiff: snapshots have different roots (%s vs %s)", prev.Root(), pkgRoot)
	}
	var added []remapPair
	nodes := make([]pkgNode, 1, prev.NumNodes()+1)
	nodes[0] = pkgNode{id: pkgRoot}
	arena := make([]oem.Arc, 0, prev.NumArcs())
	// Packaged ids are allocated densely from st.nextID, so a slice
	// indexed by id tells which objects the walk reached (index+1 into
	// nodes; goneMark for snapshot objects the result lost) and yields
	// them in id order without sorting. The remap is one-to-one, so this
	// also answers packageResult's per-source-id "copied" check.
	const goneMark = -1
	pos := make([]int32, st.nextID+1)
	at := func(id oem.NodeID) *int32 {
		for int(id) >= len(pos) {
			pos = append(pos, make([]int32, len(pos))...)
		}
		return &pos[id]
	}
	*at(pkgRoot) = 1
	var visit func(src oem.NodeID) oem.NodeID
	visit = func(src oem.NodeID) oem.NodeID {
		id, ok := st.remap[src]
		if !ok {
			st.nextID++
			id = st.nextID
			st.remap[src] = id
			added = append(added, remapPair{Src: src, ID: id})
		}
		p := at(id)
		if *p != 0 {
			return id
		}
		*p = int32(len(nodes) + 1)
		out := snap.Out(src)
		start := len(arena)
		nodes = append(nodes, pkgNode{id: id, src: src, start: int32(start), end: int32(start + len(out))})
		arena = append(arena, out...) // placeholders, overwritten below
		for j, a := range out {
			child := visit(a.Child) // may grow arena: index it afterwards
			arena[start+j] = oem.Arc{Parent: id, Label: a.Label, Child: child}
		}
		return id
	}
	var rootArcs []oem.Arc
	seenRoot := make(map[oem.Arc]bool)
	for _, row := range res.Rows {
		for _, cell := range row.Cells {
			if !cell.IsNode() {
				continue
			}
			label := cell.Label
			if label == "" {
				label = "result"
			}
			a := oem.Arc{Parent: pkgRoot, Label: label, Child: visit(cell.Node())}
			if !seenRoot[a] {
				seenRoot[a] = true
				rootArcs = append(rootArcs, a)
			}
		}
	}
	nodes[0].start = int32(len(arena))
	arena = append(arena, rootArcs...)
	nodes[0].end = int32(len(arena))

	var set change.Set
	for _, p := range pos {
		if p <= 0 {
			continue
		}
		n := nodes[p-1]
		nv := value.Complex() // the packaged root's
		if n.id != pkgRoot {
			nv = snap.MustValue(n.src)
		}
		ov, ok := prev.Value(n.id)
		switch {
		case !ok:
			set = append(set, change.CreNode{Node: n.id, Value: nv})
		case !ov.Equal(nv):
			set = append(set, change.UpdNode{Node: n.id, Value: nv})
		}
	}
	// Removals are grouped by parent and emitted after every addition.
	type remGroup struct {
		parent oem.NodeID
		arcs   []oem.Arc
	}
	var rems []remGroup
	for _, p := range pos {
		if p <= 0 {
			continue
		}
		n := nodes[p-1]
		arcs := arena[n.start:n.end]
		old := prev.Out(n.id)
		if slices.Equal(old, arcs) {
			continue
		}
		// Apply inserts a step's arcs in canonical (sorted) order, so the
		// snapshot's order often differs from the source's: compare as sets.
		had, kept := arcSet(old), arcSet(arcs)
		for _, a := range arcs {
			if !had.has(a) {
				set = append(set, change.AddArc{Parent: a.Parent, Label: a.Label, Child: a.Child})
			}
		}
		g := remGroup{parent: n.id}
		for _, a := range old {
			if !kept.has(a) {
				g.arcs = append(g.arcs, a)
			}
		}
		if len(g.arcs) > 0 {
			rems = append(rems, g)
		}
	}
	// Objects that left the result lose every arc.
	var stack []oem.NodeID
	push := func(arcs []oem.Arc) {
		for _, a := range arcs {
			if p := at(a.Child); *p == 0 {
				*p = goneMark
				stack = append(stack, a.Child)
			}
		}
	}
	for _, g := range rems {
		push(g.arcs)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if old := prev.Out(n); len(old) > 0 {
			rems = append(rems, remGroup{parent: n, arcs: old})
			push(old)
		}
	}
	sort.Slice(rems, func(i, j int) bool { return rems[i].parent < rems[j].parent })
	for _, g := range rems {
		for _, a := range g.arcs {
			set = append(set, change.RemArc{Parent: a.Parent, Label: a.Label, Child: a.Child})
		}
	}
	if err := set.Validate(prev); err != nil {
		return nil, nil, fmt.Errorf("oemdiff: inconsistent snapshots: %w", err)
	}
	return set, added, nil
}

// arcLookup answers membership in one object's arc list: a scan for short
// lists, a hash set for long ones (the root of a large result).
type arcLookup struct {
	arcs []oem.Arc
	set  map[oem.Arc]bool
}

// arcScanMax is the arc-list length up to which lookups scan.
const arcScanMax = 16

func arcSet(arcs []oem.Arc) arcLookup {
	l := arcLookup{arcs: arcs}
	if len(arcs) > arcScanMax {
		l.set = make(map[oem.Arc]bool, len(arcs))
		for _, a := range arcs {
			l.set[a] = true
		}
	}
	return l
}

func (l arcLookup) has(a oem.Arc) bool {
	if l.set != nil {
		return l.set[a]
	}
	return slices.Contains(l.arcs, a)
}

package index

import (
	"sort"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/oem"
	"repro/internal/symbol"
	"repro/internal/timestamp"
)

// Apply applies one history step to the wrapped database (doem.ApplyStep)
// and brings the index up to date with it, returning the node ids the
// step's garbage collection deleted. When the tables are at the generation
// just before the step, the step is folded into them in place, at a cost
// proportional to the step rather than to the database; any other gap
// (no tables yet, or the database moved without this hook) drops them and
// the next read rebuilds, so the Version() self-check stays the safety
// net. Like every mutation, Apply must exclude readers of the graph.
func (g *Graph) Apply(t timestamp.Time, ops change.Set) ([]oem.NodeID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	prev := g.d.Version()
	collected, err := g.d.ApplyStep(t, ops)
	if err != nil {
		return nil, err
	}
	if g.tab == nil || g.tab.gen != prev {
		g.tab = nil
		return collected, nil
	}
	start := now()
	g.tab.fold(g.d, t, ops, collected)
	mFolds.Inc()
	mFoldNs.ObserveSince(start)
	return collected, nil
}

// fold advances the tables by the step (at, ops) that d has just applied,
// leaving them equal to buildTables on the new generation:
//
//   - created ids join nodes; upd annotations extend updInfos;
//   - removed arcs leave their outLabeled bucket (copied, never edited in
//     place, since earlier readers may still hold the old slice);
//   - added arcs are the tail of their parent's current arc list, in the
//     order Apply inserted them, and the arcs new to the full relation
//     (one annotation: this add) are the tail of its OutAll list;
//   - collected nodes lose their outLabeled buckets;
//   - views and snapshots of instants before at are carried over: Apply
//     only accepts steps after every earlier one, and every annotation the
//     step attached is at at, so O_T(D) is unchanged for T < at.
func (t *tables) fold(d *doem.Database, at timestamp.Time, ops change.Set, collected []oem.NodeID) {
	root := d.Root()
	t.annotTotal += len(ops)
	var created []oem.NodeID
	adds := make(map[oem.NodeID]int)   // this step's added arcs per parent
	newAll := make(map[oem.NodeID]int) // of which new to the full relation
	for _, op := range ops {
		switch o := op.(type) {
		case change.CreNode:
			created = append(created, o.Node)
		case change.UpdNode:
			anns := d.NodeAnnots(o.Node)
			last := anns[len(anns)-1]
			cur, _ := d.Value(o.Node)
			t.updInfos[o.Node] = append(t.updInfos[o.Node], doem.UpdInfo{At: last.At, Old: last.Old, New: cur})
		case change.RemArc:
			t.removeCurrent(oem.Arc{Parent: o.Parent, Label: o.Label, Child: o.Child}, root)
		case change.AddArc:
			adds[o.Parent]++
			if len(d.ArcAnnots(oem.Arc{Parent: o.Parent, Label: o.Label, Child: o.Child})) == 1 {
				newAll[o.Parent]++
			}
		}
	}
	dead := make(map[oem.NodeID]bool, len(collected))
	for _, n := range collected {
		dead[n] = true
	}
	for p, n := range adds {
		if dead[p] {
			continue // its current arcs went with the collection
		}
		out := d.Out(p)
		for _, a := range out[len(out)-n:] {
			t.addCurrent(a, root)
		}
	}
	for p, n := range newAll {
		all := d.OutAll(p)
		for _, a := range all[len(all)-n:] {
			t.addAll(a, root)
		}
	}
	for _, n := range collected {
		for _, a := range d.OutAll(n) {
			id, _ := symbol.Intern(a.Label)
			k := symKey{n, id}
			b, ok := t.outLabeled[k]
			if !ok {
				continue
			}
			lc := t.labelStats[a.Label]
			lc.Arcs -= len(b)
			lc.Parents--
			t.labelStats[a.Label] = lc
			t.arcTotal -= len(b)
			delete(t.outLabeled, k)
		}
	}
	t.nodes = mergeIDs(t.nodes, created)

	t.mu.Lock()
	for _, key := range t.views.keys() {
		if !key.Before(at) {
			t.views.remove(key)
		}
	}
	for _, key := range t.snaps.keys() {
		if !key.Before(at) {
			t.snaps.remove(key)
		}
	}
	if h := t.hot.Load(); h != nil && !h.t.Before(at) {
		t.hot.Store(nil)
	}
	t.mu.Unlock()
	t.gen = d.Version()
}

// removeCurrent takes a removed arc out of its current-snapshot bucket.
// The bucket is replaced by a copy: slices handed to earlier readers keep
// the contents they were returned with.
func (t *tables) removeCurrent(a oem.Arc, root oem.NodeID) {
	id, _ := symbol.Intern(a.Label)
	k := symKey{a.Parent, id}
	b := t.outLabeled[k]
	i := 0
	for i < len(b) && b[i] != a {
		i++
	}
	if i == len(b) {
		return
	}
	lc := t.labelStats[a.Label]
	if len(b) == 1 {
		delete(t.outLabeled, k)
		lc.Parents--
	} else {
		nb := make([]oem.Arc, 0, len(b)-1)
		t.outLabeled[k] = append(append(nb, b[:i]...), b[i+1:]...)
	}
	lc.Arcs--
	if a.Parent == root {
		lc.RootOut--
	}
	t.labelStats[a.Label] = lc
	t.arcTotal--
}

// mergeIDs returns the ascending union of sorted ids and the (unsorted,
// disjoint) fresh ids.
func mergeIDs(ids, fresh []oem.NodeID) []oem.NodeID {
	if len(fresh) == 0 {
		return ids
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i] < fresh[j] })
	if len(ids) == 0 || ids[len(ids)-1] < fresh[0] {
		return append(ids, fresh...)
	}
	out := make([]oem.NodeID, 0, len(ids)+len(fresh))
	i, j := 0, 0
	for i < len(ids) && j < len(fresh) {
		if ids[i] < fresh[j] {
			out = append(out, ids[i])
			i++
		} else {
			out = append(out, fresh[j])
			j++
		}
	}
	out = append(out, ids[i:]...)
	return append(out, fresh[j:]...)
}

// Package index provides query-path secondary indexes over DOEM databases:
// per-(node, label) adjacency maps, time-sorted annotation lookups resolved
// by binary search, and an LRU-bounded cache of materialized historical
// views keyed by (graph generation, T).
//
// Graph wraps a *doem.Database and implements lorel.Graph plus the
// evaluator's optional fast-path interfaces (lorel.SymSeeker,
// lorel.TimeSeeker). Every accessor returns exactly
// what the unindexed database would — same arcs, same insertion order —
// so indexed and unindexed evaluation are byte-identical; the property and
// fuzz tests in this package enforce that.
//
// Index structures are built lazily on first use and keyed to
// doem.Database.Version(). Mutation sites (lore.Store.ApplySet, QSS poll
// application) apply steps through Graph.Apply, which folds each step
// into the current generation's tables in place (see fold.go); a database
// mutated any other way is caught by the Version() self-check, which
// drops the tables and rebuilds on the next read.
//
// Concurrency: Graph is safe for concurrent readers under the same
// contract as doem.Database itself (mutators exclude readers). Internal
// lazy builds and cache updates are guarded by the Graph's own locks.
package index

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/doem"
	"repro/internal/lorel"
	"repro/internal/oem"
	"repro/internal/plan"
	"repro/internal/symbol"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// Default cache capacities. Views are what poll-time and <at T> queries
// hit repeatedly; snapshots are full O_t(D) materializations, larger and
// rarer, so they get a smaller budget. See docs/indexing.md for sizing
// guidance.
const (
	DefaultViewCacheSize     = 16
	DefaultSnapshotCacheSize = 4
)

// Graph is an indexed read-only view of a DOEM database.
type Graph struct {
	d *doem.Database

	viewCap int
	snapCap int

	mu  sync.RWMutex
	tab *tables // nil until first use; rebuilt when d.Version() moves
}

var (
	_ lorel.Graph      = (*Graph)(nil)
	_ lorel.SymSeeker  = (*Graph)(nil)
	_ lorel.TimeSeeker = (*Graph)(nil)
)

// NewGraph returns an indexed wrapper over d with default cache sizes.
// Index structures are built on first use, not here.
func NewGraph(d *doem.Database) *Graph {
	return &Graph{d: d, viewCap: DefaultViewCacheSize, snapCap: DefaultSnapshotCacheSize}
}

// SetCacheSizes adjusts the view and snapshot LRU capacities (minimum 1
// each) and drops any cached state.
func (g *Graph) SetCacheSizes(views, snapshots int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if views > 0 {
		g.viewCap = views
	}
	if snapshots > 0 {
		g.snapCap = snapshots
	}
	g.tab = nil
}

// DOEM returns the wrapped database.
func (g *Graph) DOEM() *doem.Database { return g.d }

// Invalidate drops every index structure and cached view. The next read
// rebuilds against the database's current generation. Steps applied
// through Apply need no call; it is for callers that mutate the database
// behind the graph's back and want the tables gone at once (the Version()
// self-check would catch them at the next read anyway).
func (g *Graph) Invalidate() {
	g.mu.Lock()
	g.tab = nil
	g.mu.Unlock()
}

// symKey addresses the adjacency indexes: a fixed-size 12-byte key (node
// id + interned label id) whose hash never touches the label bytes.
type symKey struct {
	n   oem.NodeID
	sym symbol.ID
}

// tables holds every structure derived from one database generation.
// Dropping the tables drops all cached views and snapshots with it, which
// is what keys the caches by (generation, T).
type tables struct {
	gen uint64
	// nodes is AllNodeIDs() at build time: every node ever, ascending.
	nodes []oem.NodeID
	// outLabeled indexes the current snapshot's arcs by (parent, label
	// symbol), preserving insertion order within each label.
	outLabeled map[symKey][]oem.Arc
	// outAllLabeled is the same over the full arc relation, removed arcs
	// included.
	outAllLabeled map[symKey][]oem.Arc
	// updInfos caches UpdTriples per node (upd annotations ascending by
	// timestamp, with derived new values) so <upd ...> matching and
	// ValueAt binary searches reuse one materialization.
	updInfos map[oem.NodeID][]doem.UpdInfo

	// Planner statistics, accumulated during the same build pass (see
	// stats.go): per-label cardinalities plus arc/annotation totals.
	labelStats map[string]plan.LabelCard
	arcTotal   int
	annotTotal int

	// mu guards the caches below (lru.get mutates recency order).
	mu    sync.Mutex
	views *lru[timestamp.Time, *view]
	snaps *lru[timestamp.Time, *oem.Database]

	// hot is the most recently returned view. A single <at T> query calls
	// OutAt once per traversed node with the same T, so this lock-free
	// check turns the common repeat into one atomic load instead of a
	// mutex acquisition plus an LRU reorder.
	hot atomic.Pointer[hotView]
}

// hotView pairs a view with the instant it materializes.
type hotView struct {
	t timestamp.Time
	v *view
}

// view is the live-arc relation of the whole database at one instant T:
// for every node ever present, the arcs of OutAll that ArcLiveAt(·, T)
// admits, in insertion order. Unlike a garbage-collected snapshot it keeps
// arcs of nodes unreachable at T, because direct evaluation can traverse
// such arcs (a node reached through the current snapshot and then stepped
// through <at T>); dropping them would diverge from the unindexed path.
type view struct {
	out map[oem.NodeID][]oem.Arc
}

// tables returns the index structures for the database's current
// generation, building them on first use or after a mutation.
func (g *Graph) tables() *tables {
	gen := g.d.Version()
	g.mu.RLock()
	t := g.tab
	g.mu.RUnlock()
	if t != nil && t.gen == gen {
		return t
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.tab != nil && g.tab.gen == gen {
		return g.tab
	}
	start := now()
	g.tab = buildTables(g.d, gen, g.viewCap, g.snapCap)
	mBuilds.Inc()
	mBuildNs.ObserveSince(start)
	return g.tab
}

func buildTables(d *doem.Database, gen uint64, viewCap, snapCap int) *tables {
	t := &tables{
		gen:           gen,
		nodes:         d.AllNodeIDs(),
		outLabeled:    make(map[symKey][]oem.Arc),
		outAllLabeled: make(map[symKey][]oem.Arc),
		updInfos:      make(map[oem.NodeID][]doem.UpdInfo),
		labelStats:    make(map[string]plan.LabelCard),
		annotTotal:    d.NumAnnotations(),
		views:         newLRU[timestamp.Time, *view](viewCap),
		snaps:         newLRU[timestamp.Time, *oem.Database](snapCap),
	}
	root := d.Root()
	for _, n := range t.nodes {
		for _, a := range d.Out(n) {
			t.addCurrent(a, root)
		}
		for _, a := range d.OutAll(n) {
			t.addAll(a, root)
		}
		if ups := d.UpdTriples(n); len(ups) > 0 {
			t.updInfos[n] = ups
		}
	}
	return t
}

// appendTo files an arc under (parent, label symbol) and reports whether
// it opened a new bucket. Labels reaching here were canonicalized at
// AddArc, so the Intern call is a lock-free hit.
func appendTo(m map[symKey][]oem.Arc, a oem.Arc) (first bool) {
	id, _ := symbol.Intern(a.Label)
	k := symKey{a.Parent, id}
	first = len(m[k]) == 0
	m[k] = append(m[k], a)
	return first
}

// addCurrent files a current-snapshot arc under its (parent, label)
// bucket and counts it in the planner statistics.
func (t *tables) addCurrent(a oem.Arc, root oem.NodeID) {
	lc := t.labelStats[a.Label]
	if appendTo(t.outLabeled, a) {
		lc.Parents++
	}
	lc.Arcs++
	if a.Parent == root {
		lc.RootOut++
	}
	t.labelStats[a.Label] = lc
	t.arcTotal++
}

// addAll files an arc of the full relation (removed arcs included).
func (t *tables) addAll(a oem.Arc, root oem.NodeID) {
	lc := t.labelStats[a.Label]
	if appendTo(t.outAllLabeled, a) {
		lc.AllParents++
	}
	lc.AllArcs++
	if a.Parent == root {
		lc.AllRootOut++
	}
	t.labelStats[a.Label] = lc
}

// --- lorel.Graph: plain delegates -----------------------------------------

// Root returns the root object id.
func (g *Graph) Root() oem.NodeID { return g.d.Root() }

// Value returns the current (final) value of n.
func (g *Graph) Value(n oem.NodeID) (value.Value, bool) { return g.d.Value(n) }

// Out returns the current-snapshot arcs of n, in insertion order.
func (g *Graph) Out(n oem.NodeID) []oem.Arc { return g.d.Out(n) }

// OutAll returns every arc of n including removed ones.
func (g *Graph) OutAll(n oem.NodeID) []oem.Arc { return g.d.OutAll(n) }

// CreTime returns n's creation annotation, if any.
func (g *Graph) CreTime(n oem.NodeID) (timestamp.Time, bool) { return g.d.CreTime(n) }

// ArcAnnots returns the annotations on arc a in timestamp order.
func (g *Graph) ArcAnnots(a oem.Arc) []doem.ArcAnnot { return g.d.ArcAnnots(a) }

// --- lorel.Graph: indexed implementations ---------------------------------

// UpdTriples returns n's upd annotations with derived new values, served
// from the per-generation cache instead of re-deriving on every call.
func (g *Graph) UpdTriples(n oem.NodeID) []doem.UpdInfo { return g.tables().updInfos[n] }

// ValueAt returns the value of n at time t, binary-searching the
// time-sorted upd annotations: if the latest upd is at or before t (or
// there are none) the current value, otherwise the old value of the
// earliest upd strictly after t — identical to doem.Database.ValueAt.
func (g *Graph) ValueAt(n oem.NodeID, t timestamp.Time) value.Value {
	ups := g.tables().updInfos[n]
	cur, _ := g.d.Value(n)
	if len(ups) == 0 || !ups[len(ups)-1].At.After(t) {
		return cur
	}
	i := sort.Search(len(ups), func(i int) bool { return ups[i].At.After(t) })
	return ups[i].Old
}

// ArcLiveAt reports whether arc a existed at time t, binary-searching the
// arc's time-sorted annotation list. Semantics match
// doem.Database.ArcLiveAt exactly, including the inclusive boundary: an
// annotation timestamped exactly t takes effect at t.
func (g *Graph) ArcLiveAt(a oem.Arc, t timestamp.Time) bool {
	return arcLiveAt(g.d, a, t)
}

// arcLiveAt is the binary-search form of doem.Database.ArcLiveAt: the
// arc's state is decided by the latest annotation with At <= t, or by the
// arc's initial liveness (no annotations, or earliest is rem) if none.
func arcLiveAt(d *doem.Database, a oem.Arc, t timestamp.Time) bool {
	anns := d.ArcAnnots(a)
	k := sort.Search(len(anns), func(i int) bool { return anns[i].At.After(t) })
	if k == 0 {
		return len(anns) == 0 || anns[0].Kind == doem.AnnotRem
	}
	return anns[k-1].Kind == doem.AnnotAdd
}

// --- optional evaluator fast paths ----------------------------------------

// OutLabeledSym implements lorel.SymSeeker: an exact-label probe keyed by
// interned symbol id. symbol.None keys nothing and yields nil.
func (g *Graph) OutLabeledSym(n oem.NodeID, sym symbol.ID) []oem.Arc {
	return g.tables().outLabeled[symKey{n, sym}]
}

// OutAllLabeledSym implements lorel.SymSeeker over the full arc relation.
func (g *Graph) OutAllLabeledSym(n oem.NodeID, sym symbol.ID) []oem.Arc {
	return g.tables().outAllLabeled[symKey{n, sym}]
}

// OutAt implements lorel.TimeSeeker: the arcs of n live at time t, from
// the (generation, t)-keyed view cache.
func (g *Graph) OutAt(n oem.NodeID, t timestamp.Time) []oem.Arc {
	return g.viewAt(t).out[n]
}

// viewAt returns the materialized live-arc view for time t, building and
// caching it on a miss.
func (g *Graph) viewAt(t timestamp.Time) *view {
	tab := g.tables()
	if h := tab.hot.Load(); h != nil && h.t == t {
		mCacheHits.Inc()
		return h.v
	}
	tab.mu.Lock()
	if v, ok := tab.views.get(t); ok {
		tab.mu.Unlock()
		tab.hot.Store(&hotView{t: t, v: v})
		mCacheHits.Inc()
		return v
	}
	tab.mu.Unlock()
	mCacheMisses.Inc()
	start := now()
	v := buildView(g.d, tab, t)
	mSnapshotBuildNs.ObserveSince(start)
	tab.mu.Lock()
	defer tab.mu.Unlock()
	if cached, ok := tab.views.get(t); ok {
		// A concurrent reader built the same view; keep the cached one.
		tab.hot.Store(&hotView{t: t, v: cached})
		return cached
	}
	if tab.views.add(t, v) {
		mCacheEvictions.Inc()
	}
	tab.hot.Store(&hotView{t: t, v: v})
	return v
}

func buildView(d *doem.Database, tab *tables, t timestamp.Time) *view {
	v := &view{out: make(map[oem.NodeID][]oem.Arc, len(tab.nodes))}
	for _, n := range tab.nodes {
		all := d.OutAll(n)
		var live []oem.Arc
		for _, a := range all {
			if arcLiveAt(d, a, t) {
				live = append(live, a)
			}
		}
		if live != nil {
			v.out[n] = live
		}
	}
	return v
}

// --- memoized snapshot extraction -----------------------------------------

// SnapshotAt materializes O_t(D) like doem.Database.SnapshotAt, memoized
// in an LRU keyed by (generation, t). The returned database is shared
// between callers and with the cache: treat it as read-only and Clone it
// before mutating.
func (g *Graph) SnapshotAt(t timestamp.Time) *oem.Database {
	tab := g.tables()
	tab.mu.Lock()
	if s, ok := tab.snaps.get(t); ok {
		tab.mu.Unlock()
		mCacheHits.Inc()
		return s
	}
	tab.mu.Unlock()
	mCacheMisses.Inc()
	start := now()
	s := g.d.SnapshotAt(t)
	mSnapshotBuildNs.ObserveSince(start)
	tab.mu.Lock()
	defer tab.mu.Unlock()
	if cached, ok := tab.snaps.get(t); ok {
		return cached
	}
	if tab.snaps.add(t, s) {
		mCacheEvictions.Inc()
	}
	return s
}

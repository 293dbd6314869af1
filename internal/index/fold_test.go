package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/lorel"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// stepGen draws random valid change sets over a guide-shaped database. Its
// steps cover every case fold must handle: new restaurants hung off the
// root, root-arc removals that collect whole subtrees, shared subobjects
// ("near" arcs between restaurants, which can also close cycles), arcs
// removed and later re-added ("alt" arcs to a restaurant's own name), value
// updates, and created nodes no arc reaches (collected in their own step).
type stepGen struct {
	rng  *rand.Rand
	next oem.NodeID
}

func (g *stepGen) id() oem.NodeID { g.next++; return g.next }

func (g *stepGen) step(d *doem.Database) change.Set {
	cur := d.Current()
	root := cur.Root()
	var rs []oem.NodeID
	for _, a := range cur.Out(root) {
		if a.Label == "restaurant" {
			rs = append(rs, a.Child)
		}
	}
	pick := func() oem.NodeID { return rs[g.rng.Intn(len(rs))] }
	child := func(r oem.NodeID, label string) (oem.NodeID, bool) {
		for _, a := range cur.Out(r) {
			if a.Label == label {
				return a.Child, true
			}
		}
		return 0, false
	}
	var set change.Set
	arcs := make(map[oem.Arc]bool) // arcs this set adds or removes
	upd := make(map[oem.NodeID]bool)
	toggle := func(p oem.NodeID, l string, c oem.NodeID) {
		a := oem.Arc{Parent: p, Label: l, Child: c}
		if arcs[a] {
			return
		}
		arcs[a] = true
		if cur.HasArc(p, l, c) {
			set = append(set, change.RemArc{Parent: p, Label: l, Child: c})
		} else {
			set = append(set, change.AddArc{Parent: p, Label: l, Child: c})
		}
	}
	for n := 1 + g.rng.Intn(4); n > 0; n-- {
		switch k := g.rng.Intn(7); {
		case k == 0 || len(rs) < 3:
			r, nm, pr := g.id(), g.id(), g.id()
			set = append(set,
				change.CreNode{Node: r, Value: value.Complex()},
				change.CreNode{Node: nm, Value: value.Str(fmt.Sprintf("Cafe %d", r))},
				change.CreNode{Node: pr, Value: value.Int(int64(g.rng.Intn(50)))},
				change.AddArc{Parent: root, Label: "restaurant", Child: r},
				change.AddArc{Parent: r, Label: "name", Child: nm},
				change.AddArc{Parent: r, Label: "price", Child: pr})
			if len(rs) > 0 && g.rng.Intn(2) == 0 {
				set = append(set, change.AddArc{Parent: r, Label: "near", Child: pick()})
			}
		case k == 1:
			toggle(root, "restaurant", pick()) // removal collects the subtree
		case k == 2:
			if p, ok := child(pick(), "price"); ok && !upd[p] {
				upd[p] = true
				set = append(set, change.UpdNode{Node: p, Value: value.Int(int64(g.rng.Intn(50)))})
			}
		case k == 3:
			r := pick()
			if nm, ok := child(r, "name"); ok {
				toggle(r, "alt", nm) // removed, then re-added by a later step
			}
		case k == 4:
			toggle(pick(), "near", pick())
		case k == 5:
			set = append(set, change.CreNode{Node: g.id(), Value: value.Str("orphan")})
		default:
			toggle(root, "featured", pick())
		}
	}
	return set
}

// tableState is the comparable content of a tables value.
type tableState struct {
	nodes         []oem.NodeID
	outLabeled    map[symKey][]oem.Arc
	outAllLabeled map[symKey][]oem.Arc
	updInfos      map[oem.NodeID]string
	labelStats    any
	arcTotal      int
	annotTotal    int
}

func stateOf(t *tables) tableState {
	ups := make(map[oem.NodeID]string, len(t.updInfos))
	for n, u := range t.updInfos {
		ups[n] = fmt.Sprint(u)
	}
	return tableState{t.nodes, t.outLabeled, t.outAllLabeled, ups, t.labelStats, t.arcTotal, t.annotTotal}
}

// TestFoldMatchesRebuild: after every step of randomized histories, the
// tables Apply folded in place deep-equal a fresh buildTables of the new
// generation, and every view and snapshot carried over equals a rebuilt
// one. Queries through the folded graph keep answering like the raw
// database.
func TestFoldMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		d := doem.New(guidegen.Synthetic(seed, 4))
		gen := &stepGen{rng: rand.New(rand.NewSource(seed)), next: d.MaxID()}
		ig := NewGraph(d)
		raw := lorel.NewEngine()
		raw.Register("guide", d)
		idx := lorel.NewEngine()
		idx.Register("guide", ig)
		qrng := rand.New(rand.NewSource(seed * 31))
		at := timestamp.MustParse("1Jan97")
		for i := 0; i < 60; i++ {
			tab := ig.tables()
			// Cache views and snapshots on both sides of the coming step.
			for _, T := range []timestamp.Time{timestamp.NegInf, at.Add(-timestampDur(1)), at, at.Add(timestampDur(1))} {
				ig.viewAt(T)
				ig.SnapshotAt(T)
			}
			set := gen.step(d)
			if _, err := ig.Apply(at, set); err != nil {
				t.Fatalf("seed %d step %d: apply %v: %v", seed, i, set, err)
			}
			if ig.tab != tab {
				t.Fatalf("seed %d step %d: tables were replaced, not folded", seed, i)
			}
			fresh := buildTables(d, d.Version(), DefaultViewCacheSize, DefaultSnapshotCacheSize)
			if got, want := stateOf(tab), stateOf(fresh); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d (%v): folded tables differ from a rebuild:\nfolded: %+v\nrebuilt: %+v",
					seed, i, set, got, want)
			}
			views, snaps := tab.views.keys(), tab.snaps.keys()
			for _, T := range append(append([]timestamp.Time(nil), views...), snaps...) {
				if !T.Before(at) {
					t.Fatalf("seed %d step %d: a view or snapshot at %s survived a step at %s", seed, i, T, at)
				}
			}
			if _, ok := tab.views.get(at.Add(-timestampDur(1))); !ok {
				t.Fatalf("seed %d step %d: the view just before the step was not carried over", seed, i)
			}
			if _, ok := tab.snaps.get(at.Add(-timestampDur(1))); !ok {
				t.Fatalf("seed %d step %d: the snapshot just before the step was not carried over", seed, i)
			}
			for _, T := range views {
				v, _ := tab.views.get(T)
				if want := buildView(d, fresh, T); !reflect.DeepEqual(v.out, want.out) {
					t.Fatalf("seed %d step %d: carried view at %s differs from a rebuild", seed, i, T)
				}
			}
			for _, T := range snaps {
				s, _ := tab.snaps.get(T)
				if want := d.SnapshotAt(T); !s.Equal(want) || s.String() != want.String() {
					t.Fatalf("seed %d step %d: carried snapshot at %s differs from a rebuild", seed, i, T)
				}
			}
			q := randomQuery(qrng, candidateTimes(d))
			want, err := raw.Query(q)
			if err != nil {
				t.Fatalf("unindexed %q: %v", q, err)
			}
			got, err := idx.Query(q)
			if err != nil {
				t.Fatalf("indexed %q: %v", q, err)
			}
			if want.String() != got.String() {
				t.Fatalf("seed %d step %d: folded graph diverges for %q:\nunindexed:\n%s\nindexed:\n%s",
					seed, i, q, want, got)
			}
			at = at.Add(timestampDur(86400))
		}
	}
}

// TestApplyRebuildsAcrossGaps: Apply folds only from the generation just
// before the step. Tables that a direct doem Apply left behind are dropped
// instead, and the next read rebuilds them.
func TestApplyRebuildsAcrossGaps(t *testing.T) {
	d := doem.New(guidegen.Synthetic(2, 4))
	ig := NewGraph(d)
	gen := &stepGen{rng: rand.New(rand.NewSource(2)), next: d.MaxID()}
	at := timestamp.MustParse("1Jan97")
	ig.tables()
	if err := d.Apply(at, gen.step(d)); err != nil { // behind the graph's back
		t.Fatal(err)
	}
	at = at.Add(timestampDur(60))
	if _, err := ig.Apply(at, gen.step(d)); err != nil {
		t.Fatal(err)
	}
	if ig.tab != nil {
		t.Fatal("Apply folded into tables two generations old")
	}
	fresh := buildTables(d, d.Version(), DefaultViewCacheSize, DefaultSnapshotCacheSize)
	if !reflect.DeepEqual(stateOf(ig.tables()), stateOf(fresh)) {
		t.Fatal("rebuilt tables differ from buildTables")
	}
	// A refused step leaves the tables as they were.
	tab := ig.tables()
	if _, err := ig.Apply(at, gen.step(d)); err == nil {
		t.Fatal("Apply accepted a step that is not after the last one")
	}
	if ig.tab != tab || tab.gen != d.Version() {
		t.Fatal("a refused Apply disturbed the tables")
	}
}

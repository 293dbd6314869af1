package change

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// guideFixture builds the Figure 2 Guide database and returns the node ids
// needed by the paper's Example 2.2 history: n1 (Bangkok price), n4 (guide
// root), n6 (Janta), n7 (parking).
func guideFixture(t testing.TB) (db *oem.Database, n1, n4, n6, n7 oem.NodeID) {
	t.Helper()
	b := oem.NewBuilder()
	guide := b.Root()
	bangkok := b.ComplexArc(guide, "restaurant")
	b.AtomArc(bangkok, "name", value.Str("Bangkok Cuisine"))
	price := b.AtomArc(bangkok, "price", value.Int(10))
	b.AtomArc(bangkok, "cuisine", value.Str("Thai"))
	addr := b.ComplexArc(bangkok, "address")
	b.AtomArc(addr, "street", value.Str("Lytton"))
	b.AtomArc(addr, "city", value.Str("Palo Alto"))
	janta := b.ComplexArc(guide, "restaurant")
	b.AtomArc(janta, "name", value.Str("Janta"))
	b.AtomArc(janta, "price", value.Str("moderate"))
	b.AtomArc(janta, "address", value.Str("120 Lytton"))
	parking := b.ComplexArc(janta, "parking")
	b.Arc(bangkok, "parking", parking)
	b.AtomArc(parking, "comment", value.Str("usually full"))
	b.AtomArc(parking, "address", value.Str("Lytton lot 2"))
	b.Arc(parking, "nearby-eats", bangkok)
	return b.Build(), price, guide, janta, parking
}

// paperHistory returns the Example 2.3 history against the fixture's ids.
// n2, n3, n5 are fresh ids for the Hakata restaurant, its name, and the
// later comment.
func paperHistory(db *oem.Database, n1, n4, n6, n7 oem.NodeID) (History, oem.NodeID, oem.NodeID, oem.NodeID) {
	n2 := oem.NodeID(100)
	n3 := oem.NodeID(101)
	n5 := oem.NodeID(102)
	h := History{
		{At: timestamp.MustParse("1Jan97"), Ops: Set{
			UpdNode{Node: n1, Value: value.Int(20)},
			CreNode{Node: n2, Value: value.Complex()},
			CreNode{Node: n3, Value: value.Str("Hakata")},
			AddArc{Parent: n4, Label: "restaurant", Child: n2},
			AddArc{Parent: n2, Label: "name", Child: n3},
		}},
		{At: timestamp.MustParse("5Jan97"), Ops: Set{
			CreNode{Node: n5, Value: value.Str("need info")},
			AddArc{Parent: n2, Label: "comment", Child: n5},
		}},
		{At: timestamp.MustParse("8Jan97"), Ops: Set{
			RemArc{Parent: n6, Label: "parking", Child: n7},
		}},
	}
	return h, n2, n3, n5
}

// TestPaperExample23History replays Examples 2.2/2.3 and checks the
// resulting database matches Figure 3.
func TestPaperExample23History(t *testing.T) {
	db, n1, n4, n6, n7 := guideFixture(t)
	h, n2, n3, n5 := paperHistory(db, n1, n4, n6, n7)
	if err := h.Validate(db); err != nil {
		t.Fatalf("paper history invalid: %v", err)
	}
	if err := h.Apply(db); err != nil {
		t.Fatal(err)
	}
	// Figure 3 checks: price updated to 20.
	if v := db.MustValue(n1); !v.Equal(value.Int(20)) {
		t.Errorf("price = %s, want 20", v)
	}
	// Hakata restaurant with name and comment.
	if !db.HasArc(n4, "restaurant", n2) {
		t.Error("restaurant arc to Hakata missing")
	}
	if v := db.MustValue(n3); !v.Equal(value.Str("Hakata")) {
		t.Errorf("name = %s", v)
	}
	if !db.HasArc(n2, "comment", n5) {
		t.Error("comment arc missing")
	}
	// Janta's parking arc removed; parking node still reachable via Bangkok.
	if db.HasArc(n6, "parking", n7) {
		t.Error("removed parking arc still present")
	}
	if !db.Has(n7) {
		t.Error("shared parking node was collected though still reachable")
	}
	// Three restaurants now.
	if got := len(db.OutLabeled(n4, "restaurant")); got != 3 {
		t.Errorf("restaurants = %d, want 3", got)
	}
	if err := db.Validate(); err != nil {
		t.Errorf("post-history db invalid: %v", err)
	}
}

func TestOpValidation(t *testing.T) {
	db := oem.New()
	atom := db.CreateNode(value.Int(1))
	if err := db.AddArc(db.Root(), "a", atom); err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name string
		op   Op
		ok   bool
	}{
		{"creNode fresh", CreNode{Node: 50, Value: value.Int(1)}, true},
		{"creNode existing", CreNode{Node: atom, Value: value.Int(1)}, false},
		{"creNode zero id", CreNode{Node: 0, Value: value.Int(1)}, false},
		{"updNode atom", UpdNode{Node: atom, Value: value.Str("x")}, true},
		{"updNode root-with-children", UpdNode{Node: db.Root(), Value: value.Int(1)}, false},
		{"updNode missing", UpdNode{Node: 99, Value: value.Int(1)}, false},
		{"addArc dup", AddArc{Parent: db.Root(), Label: "a", Child: atom}, false},
		{"addArc from atom", AddArc{Parent: atom, Label: "x", Child: db.Root()}, false},
		{"addArc new", AddArc{Parent: db.Root(), Label: "b", Child: atom}, true},
		{"addArc empty label", AddArc{Parent: db.Root(), Label: "", Child: atom}, false},
		{"remArc present", RemArc{Parent: db.Root(), Label: "a", Child: atom}, true},
		{"remArc absent", RemArc{Parent: db.Root(), Label: "zz", Child: atom}, false},
	}
	for _, tt := range tests {
		err := tt.op.Validate(db)
		if (err == nil) != tt.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tt.name, err, tt.ok)
		}
	}
}

func TestSetCanonicalOrderEnablesRemThenUpd(t *testing.T) {
	// {remArc(p,a,c), updNode(p, atomic)} is valid only when the removal
	// comes first — the canonical order must find it.
	db := oem.New()
	p := db.CreateNode(value.Complex())
	c := db.CreateNode(value.Int(1))
	if err := db.AddArc(db.Root(), "p", p); err != nil {
		t.Fatal(err)
	}
	if err := db.AddArc(p, "a", c); err != nil {
		t.Fatal(err)
	}
	s := Set{
		UpdNode{Node: p, Value: value.Str("now atomic")},
		RemArc{Parent: p, Label: "a", Child: c},
	}
	if err := s.Validate(db); err != nil {
		t.Fatalf("set should be valid via rem-then-upd order: %v", err)
	}
	if _, err := s.Apply(db); err != nil {
		t.Fatal(err)
	}
	if v := db.MustValue(p); !v.Equal(value.Str("now atomic")) {
		t.Error("update not applied")
	}
	if db.Has(c) {
		t.Error("orphaned child not collected")
	}
}

func TestSetCanonicalOrderEnablesUpdThenAdd(t *testing.T) {
	// {updNode(n, C), addArc(n, l, m)}: upd must come first.
	db := oem.New()
	n := db.CreateNode(value.Int(5))
	m := db.CreateNode(value.Int(6))
	if err := db.AddArc(db.Root(), "n", n); err != nil {
		t.Fatal(err)
	}
	if err := db.AddArc(db.Root(), "m", m); err != nil {
		t.Fatal(err)
	}
	s := Set{
		AddArc{Parent: n, Label: "x", Child: m},
		UpdNode{Node: n, Value: value.Complex()},
	}
	if err := s.Validate(db); err != nil {
		t.Fatalf("set should be valid via upd-then-add order: %v", err)
	}
	if _, err := s.Apply(db); err != nil {
		t.Fatal(err)
	}
	if !db.HasArc(n, "x", m) {
		t.Error("arc not added")
	}
}

func TestSetCreThenUpdThenAdd(t *testing.T) {
	// Example 2.2's first step shape: creations plus arcs wiring them in.
	db := oem.New()
	s := Set{
		AddArc{Parent: db.Root(), Label: "restaurant", Child: 10},
		AddArc{Parent: 10, Label: "name", Child: 11},
		CreNode{Node: 10, Value: value.Complex()},
		CreNode{Node: 11, Value: value.Str("Hakata")},
	}
	if err := s.Validate(db); err != nil {
		t.Fatalf("creation set invalid: %v", err)
	}
	if _, err := s.Apply(db); err != nil {
		t.Fatal(err)
	}
	if !db.HasArc(10, "name", 11) {
		t.Error("arcs not wired")
	}
}

func TestSetRejectsAddAndRemSameArc(t *testing.T) {
	db := oem.New()
	c := db.CreateNode(value.Int(1))
	if err := db.AddArc(db.Root(), "a", c); err != nil {
		t.Fatal(err)
	}
	s := Set{
		RemArc{Parent: db.Root(), Label: "a", Child: c},
		AddArc{Parent: db.Root(), Label: "a", Child: c},
	}
	if err := s.Validate(db); !errors.Is(err, ErrInvalidSet) {
		t.Errorf("add+rem of same arc: %v, want ErrInvalidSet", err)
	}
}

func TestSetRejectsTwoUpdatesSameNode(t *testing.T) {
	db := oem.New()
	n := db.CreateNode(value.Int(1))
	if err := db.AddArc(db.Root(), "n", n); err != nil {
		t.Fatal(err)
	}
	s := Set{
		UpdNode{Node: n, Value: value.Int(2)},
		UpdNode{Node: n, Value: value.Int(3)},
	}
	if err := s.Validate(db); !errors.Is(err, ErrInvalidSet) {
		t.Errorf("two upds: %v, want ErrInvalidSet", err)
	}
}

func TestSetRejectsConflictingUpdAdd(t *testing.T) {
	// {updNode(n, atomic), addArc(n, l, m)} is invalid in every order.
	db := oem.New()
	n := db.CreateNode(value.Complex())
	m := db.CreateNode(value.Int(1))
	if err := db.AddArc(db.Root(), "n", n); err != nil {
		t.Fatal(err)
	}
	if err := db.AddArc(db.Root(), "m", m); err != nil {
		t.Fatal(err)
	}
	s := Set{
		UpdNode{Node: n, Value: value.Int(7)},
		AddArc{Parent: n, Label: "x", Child: m},
	}
	if err := s.Validate(db); !errors.Is(err, ErrInvalidSet) {
		t.Errorf("conflicting upd+add: %v, want ErrInvalidSet", err)
	}
}

func TestSetValidateDoesNotMutate(t *testing.T) {
	db := oem.New()
	n := db.CreateNode(value.Int(1))
	if err := db.AddArc(db.Root(), "n", n); err != nil {
		t.Fatal(err)
	}
	snapshot := db.Clone()
	s := Set{UpdNode{Node: n, Value: value.Int(2)}}
	if err := s.Validate(db); err != nil {
		t.Fatal(err)
	}
	if !db.Equal(snapshot) {
		t.Error("Validate mutated the database")
	}
}

func TestHistoryTimestampOrdering(t *testing.T) {
	db := oem.New()
	n := db.CreateNode(value.Int(1))
	if err := db.AddArc(db.Root(), "n", n); err != nil {
		t.Fatal(err)
	}
	mk := func(ts ...string) History {
		var h History
		for _, s := range ts {
			h = append(h, Step{At: timestamp.MustParse(s), Ops: Set{}})
		}
		return h
	}
	if err := mk("5Jan97", "1Jan97").Validate(db); !errors.Is(err, ErrInvalidHistory) {
		t.Error("decreasing timestamps accepted")
	}
	if err := mk("1Jan97", "1Jan97").Validate(db); !errors.Is(err, ErrInvalidHistory) {
		t.Error("equal timestamps accepted")
	}
	if err := mk("1Jan97", "5Jan97").Validate(db); err != nil {
		t.Errorf("increasing timestamps rejected: %v", err)
	}
	h := History{{At: timestamp.PosInf, Ops: Set{}}}
	if err := h.Validate(db); !errors.Is(err, ErrInvalidHistory) {
		t.Error("infinite timestamp accepted")
	}
}

func TestHistoryRejectsUseOfDeletedNode(t *testing.T) {
	db := oem.New()
	n := db.CreateNode(value.Int(1))
	if err := db.AddArc(db.Root(), "n", n); err != nil {
		t.Fatal(err)
	}
	h := History{
		{At: timestamp.MustParse("1Jan97"), Ops: Set{
			RemArc{Parent: db.Root(), Label: "n", Child: n}, // n becomes unreachable -> deleted
		}},
		{At: timestamp.MustParse("2Jan97"), Ops: Set{
			UpdNode{Node: n, Value: value.Int(2)},
		}},
	}
	if err := h.Validate(db); !errors.Is(err, ErrInvalidHistory) {
		t.Errorf("operation on deleted node accepted: %v", err)
	}
}

func TestHistoryApplyFailsCleanly(t *testing.T) {
	// Apply validates the whole history before mutating, so a failing
	// history leaves the database untouched.
	db := oem.New()
	n := db.CreateNode(value.Int(1))
	if err := db.AddArc(db.Root(), "n", n); err != nil {
		t.Fatal(err)
	}
	snapshot := db.Clone()
	h := History{
		{At: timestamp.MustParse("1Jan97"), Ops: Set{UpdNode{Node: n, Value: value.Int(2)}}},
		{At: timestamp.MustParse("2Jan97"), Ops: Set{UpdNode{Node: 999, Value: value.Int(3)}}},
	}
	if err := h.Apply(db); err == nil {
		t.Fatal("invalid history applied")
	}
	if !db.Equal(snapshot) {
		t.Error("failed Apply left partial changes")
	}
}

func TestHistoryStringRendering(t *testing.T) {
	db, n1, n4, n6, n7 := guideFixture(t)
	h, _, _, _ := paperHistory(db, n1, n4, n6, n7)
	s := h.String()
	for _, want := range []string{"1Jan97", "5Jan97", "8Jan97", "creNode", "updNode", "addArc", "remArc"} {
		if !strings.Contains(s, want) {
			t.Errorf("History.String() missing %q:\n%s", want, s)
		}
	}
}

// Property: applying a valid set in canonical order twice from equal clones
// yields equal databases (determinism).
func TestSetApplyDeterministic(t *testing.T) {
	prop := func(vals []uint8) bool {
		db := oem.New()
		var nodes []oem.NodeID
		for i := 0; i < 5; i++ {
			n := db.CreateNode(value.Complex())
			if err := db.AddArc(db.Root(), "c", n); err != nil {
				return false
			}
			nodes = append(nodes, n)
		}
		var s Set
		id := oem.NodeID(1000)
		for i, v := range vals {
			if i >= 8 {
				break
			}
			switch v % 3 {
			case 0:
				s = append(s, CreNode{Node: id, Value: value.Int(int64(v))})
				s = append(s, AddArc{Parent: nodes[int(v)%len(nodes)], Label: "k", Child: id})
				id++
			case 1:
				s = append(s, AddArc{Parent: nodes[int(v)%len(nodes)], Label: "x", Child: nodes[(int(v)+1)%len(nodes)]})
			case 2:
				// updates on a fresh atomic child
				s = append(s, CreNode{Node: id, Value: value.Str("s")})
				s = append(s, AddArc{Parent: nodes[0], Label: "y", Child: id})
				id++
			}
		}
		a, b := db.Clone(), db.Clone()
		errA := func() error { _, err := s.Apply(a); return err }()
		errB := func() error { _, err := s.Apply(b); return err }()
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			return true
		}
		return a.Equal(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// validateReference is the straightforward clone-and-apply validation the
// overlay-based Set.Validate replaced; the differential test below keeps
// them in agreement.
func validateReference(s Set, db *oem.Database) error {
	if err := s.checkCommutativity(); err != nil {
		return err
	}
	scratch := db.Clone()
	for _, op := range s.Canonical() {
		if err := op.Apply(scratch); err != nil {
			return err
		}
	}
	return nil
}

// TestValidateMatchesReference: the O(|set|) overlay validation must accept
// and reject exactly the same random sets as clone-and-apply.
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base, n1, n4, n6, n7 := guideFixture(t)
	_ = n1
	_ = n6
	_ = n7
	nodes := base.Nodes()
	mkOp := func(id *oem.NodeID) Op {
		switch rng.Intn(6) {
		case 0:
			*id++
			return CreNode{Node: *id, Value: value.Int(rng.Int63n(50))}
		case 1:
			*id++
			return CreNode{Node: *id, Value: value.Complex()}
		case 2:
			return UpdNode{Node: nodes[rng.Intn(len(nodes))], Value: value.Int(rng.Int63n(50))}
		case 3:
			arcs := base.Arcs()
			a := arcs[rng.Intn(len(arcs))]
			return RemArc{Parent: a.Parent, Label: a.Label, Child: a.Child}
		case 4:
			p := nodes[rng.Intn(len(nodes))]
			c := nodes[rng.Intn(len(nodes))]
			return AddArc{Parent: p, Label: "x", Child: c}
		default:
			p := nodes[rng.Intn(len(nodes))]
			return AddArc{Parent: p, Label: "restaurant", Child: n4}
		}
	}
	for trial := 0; trial < 500; trial++ {
		var set Set
		id := oem.NodeID(5000 + trial*20)
		for k := 0; k < 1+rng.Intn(6); k++ {
			set = append(set, mkOp(&id))
		}
		fast := set.Validate(base)
		slow := validateReference(set, base)
		if (fast == nil) != (slow == nil) {
			t.Fatalf("trial %d: overlay=%v reference=%v\nset: %s", trial, fast, slow, set)
		}
	}
}

// canonicalReference is the comparator Canonical used before its keys
// were precomputed: rank, then String, rendered afresh per comparison.
func canonicalReference(s Set) []Op {
	ops := append([]Op(nil), s...)
	sort.SliceStable(ops, func(i, j int) bool {
		ri, rj := ops[i].kindRank(), ops[j].kindRank()
		if ri != rj {
			return ri < rj
		}
		return ops[i].String() < ops[j].String()
	})
	return ops
}

// TestCanonicalMatchesReference: precomputing the sort keys must not move
// a single operation. Random sets mix every kind, repeat operations (so
// stability matters) and use ids whose renderings sort differently from
// their numeric order (n10 < n9).
func TestCanonicalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	labels := []string{"a", "b", "price", "restaurant", "a\"q"}
	vals := []value.Value{value.Int(3), value.Int(12), value.Str("x"), value.Str("3"), value.Complex()}
	id := func() oem.NodeID { return oem.NodeID(1 + rng.Intn(30)) }
	for iter := 0; iter < 500; iter++ {
		var s Set
		for n := rng.Intn(40); n > 0; n-- {
			switch rng.Intn(5) {
			case 0:
				s = append(s, CreNode{Node: id(), Value: vals[rng.Intn(len(vals))]})
			case 1:
				s = append(s, UpdNode{Node: id(), Value: vals[rng.Intn(len(vals))]})
			case 2:
				s = append(s, AddArc{Parent: id(), Label: labels[rng.Intn(len(labels))], Child: id()})
			case 3:
				s = append(s, RemArc{Parent: id(), Label: labels[rng.Intn(len(labels))], Child: id()})
			case 4:
				if len(s) > 0 {
					s = append(s, s[rng.Intn(len(s))])
				}
			}
		}
		got, want := s.Canonical(), canonicalReference(s)
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d ops, want %d", iter, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("iter %d: op %d = %s, want %s\nset: %v", iter, i, got[i], want[i], []Op(s))
			}
		}
	}
}

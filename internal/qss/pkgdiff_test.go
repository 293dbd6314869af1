package qss

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/lorel"
	"repro/internal/oem"
	"repro/internal/oemdiff"
	"repro/internal/timestamp"
	"repro/internal/value"
	"repro/internal/wrapper"
)

// pkgSource is a stable-id guide whose mutations exercise what packaging
// and diffing must agree on: restaurants sharing an owner object, "near"
// arcs that close cycles, restaurants dropped from the guide (their
// packaged subtrees are deleted) and later put back (the same source
// object reappears and is packaged afresh), and value updates.
type pkgSource struct {
	rng     *rand.Rand
	db      *oem.Database
	dropped []oem.NodeID // restaurants unhooked from the root, kept intact
}

func newPkgSource(seed int64) *pkgSource {
	s := &pkgSource{rng: rand.New(rand.NewSource(seed)), db: oem.New()}
	for i := 0; i < 4; i++ {
		s.addRestaurant()
	}
	return s
}

func (s *pkgSource) must(err error) {
	if err != nil {
		panic(err)
	}
}

func (s *pkgSource) restaurants() []oem.NodeID {
	var rs []oem.NodeID
	for _, a := range s.db.Out(s.db.Root()) {
		if a.Label == "restaurant" {
			rs = append(rs, a.Child)
		}
	}
	return rs
}

func (s *pkgSource) addRestaurant() {
	r := s.db.CreateNode(value.Complex())
	s.must(s.db.AddArc(s.db.Root(), "restaurant", r))
	s.must(s.db.AddArc(r, "name", s.db.CreateNode(value.Str(fmt.Sprintf("R%d", r)))))
	s.must(s.db.AddArc(r, "price", s.db.CreateNode(value.Int(int64(s.rng.Intn(40))))))
	if rs := s.restaurants(); len(rs) > 1 && s.rng.Intn(2) == 0 {
		// Share another restaurant's owner, or give this one its own.
		for _, a := range s.db.Out(rs[s.rng.Intn(len(rs))]) {
			if a.Label == "owner" {
				s.must(s.db.AddArc(r, "owner", a.Child))
				return
			}
		}
	}
	s.must(s.db.AddArc(r, "owner", s.db.CreateNode(value.Str("owner"))))
}

func (s *pkgSource) mutate() {
	rs := s.restaurants()
	pick := func() oem.NodeID { return rs[s.rng.Intn(len(rs))] }
	switch k := s.rng.Intn(7); {
	case k == 0 || len(rs) < 2:
		s.addRestaurant()
	case k == 1:
		r := pick()
		s.must(s.db.RemoveArc(s.db.Root(), "restaurant", r))
		s.dropped = append(s.dropped, r)
	case k == 2 && len(s.dropped) > 0:
		i := s.rng.Intn(len(s.dropped))
		s.must(s.db.AddArc(s.db.Root(), "restaurant", s.dropped[i]))
		s.dropped = append(s.dropped[:i], s.dropped[i+1:]...)
	case k == 3:
		for _, a := range s.db.Out(pick()) {
			if a.Label == "price" {
				s.must(s.db.UpdateNode(a.Child, value.Int(int64(s.rng.Intn(40)))))
			}
		}
	case k == 4:
		a, b := pick(), pick()
		if s.db.HasArc(a, "near", b) {
			s.must(s.db.RemoveArc(a, "near", b))
		} else {
			s.must(s.db.AddArc(a, "near", b))
		}
	default:
		// No change: an empty diff.
	}
}

// pkgTwin is a subscription state driven by one packaging path.
func pkgTwin(src *pkgSource) *subState {
	return &subState{
		sub:    Subscription{Name: "R", SourceName: "guide", Source: wrapper.Static{DB: src.db}},
		d:      doem.New(oem.New()),
		remap:  make(map[oem.NodeID]oem.NodeID),
		nextID: 1,
	}
}

// TestPackageDiffMatchesOracle: the fused package-and-diff pass returns
// exactly what packaging the result and running oemdiff.DiffIdentity
// returns — the same operations in the same order, the same remap
// additions and the same id high-water mark — over randomized source
// histories (steps of one to three mutations) and polling queries that
// return nothing, return one object in several rows, put several objects
// under one root label, or reach shared and cyclic subobjects.
func TestPackageDiffMatchesOracle(t *testing.T) {
	queries := []string{
		`select guide.restaurant`,
		`select R.owner, R.name from guide.restaurant R`,
		`select R, R.near from guide.restaurant R`,
		`select guide.restaurant.name as X, guide.restaurant.price as X, guide.restaurant as X`,
		`select guide.restaurant where guide.restaurant.price > 100`,
	}
	total, nonEmpty := 0, 0
	for qi, q := range queries {
		for seed := int64(1); seed <= 4; seed++ {
			src := newPkgSource(seed*100 + int64(qi))
			fused, oracle := pkgTwin(src), pkgTwin(src)
			at := timestamp.MustParse("1Jan97")
			for step := 0; step < 40; step++ {
				for n := 0; step > 0 && n < 1+step%3; n++ {
					src.mutate()
				}
				eng := lorel.NewEngine()
				eng.Register("guide", lorel.NewOEMGraph(src.db))
				res, err := eng.Query(q)
				if err != nil {
					t.Fatalf("%q: %v", q, err)
				}
				gotOps, gotAdded, err := fused.packageDiff(src.db, res)
				if err != nil {
					t.Fatalf("%q seed %d step %d: packageDiff: %v", q, seed, step, err)
				}
				pkg, wantAdded := oracle.packageResult(src.db, res)
				wantOps, err := oemdiff.DiffIdentity(oracle.d.Current(), pkg)
				if err != nil {
					t.Fatalf("%q seed %d step %d: DiffIdentity: %v", q, seed, step, err)
				}
				if got, want := opList(gotOps), opList(wantOps); got != want {
					t.Fatalf("%q seed %d step %d: ops differ\nfused:\n%s\noracle:\n%s", q, seed, step, got, want)
				}
				if !reflect.DeepEqual(gotAdded, wantAdded) || fused.nextID != oracle.nextID {
					t.Fatalf("%q seed %d step %d: remap additions differ\nfused:  %v (next %d)\noracle: %v (next %d)",
						q, seed, step, gotAdded, fused.nextID, wantAdded, oracle.nextID)
				}
				for _, st := range []*subState{fused, oracle} {
					if err := st.applyStep(at, gotOps); err != nil {
						t.Fatalf("%q seed %d step %d: apply: %v", q, seed, step, err)
					}
				}
				if !reflect.DeepEqual(fused.remap, oracle.remap) {
					t.Fatalf("%q seed %d step %d: remaps diverged", q, seed, step)
				}
				total++
				if len(gotOps) > 0 {
					nonEmpty++
				}
				at = at.Add(86400e9)
			}
		}
	}
	if nonEmpty < total/3 {
		t.Fatalf("only %d of %d polls changed anything", nonEmpty, total)
	}
}

// opList renders a change set one operation per line in its own order
// (change.Set.String would sort it canonically).
func opList(ops change.Set) string {
	var b strings.Builder
	for _, op := range ops {
		b.WriteString(op.String())
		b.WriteByte('\n')
	}
	return b.String()
}

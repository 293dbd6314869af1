package lorel

import (
	"fmt"
	"testing"

	"repro/internal/oem"
	"repro/internal/symbol"
	"repro/internal/value"
)

// itemEngine builds an engine over a flat OEM database: the root carries n
// "item" arcs to atomic integer nodes 0..n-1 in insertion order, with the
// value `witness` placed at position pos instead of pos's natural value.
func itemEngine(t testing.TB, n, pos int, witness int64) *Engine {
	t.Helper()
	db := oem.New()
	for i := 0; i < n; i++ {
		v := int64(i) + 1000
		if i == pos {
			v = witness
		}
		c := db.CreateNode(value.Int(v))
		if err := db.AddArc(db.Root(), "item", c); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine()
	e.Register("guide", NewOEMGraph(db))
	return e
}

// existsBindings runs an exists query against a database whose witness sits
// at position pos and returns the bindings stat (candidates examined).
func existsBindings(t *testing.T, pos int) int64 {
	t.Helper()
	e := itemEngine(t, 500, pos, 7)
	_, tr := tracedQuery(t, e, `select guide where exists X in guide.item : X = 7`)
	return tr.Stats()["bindings"]
}

// TestExistsShortCircuit is the regression test for the exists
// over-materialization bug: the evaluator used to expand the full binding
// list of the exists path before testing a single candidate, so an exists
// whose witness was the first candidate still paid for all 500. The
// streaming walk must do work proportional to the witness's position.
func TestExistsShortCircuit(t *testing.T) {
	early := existsBindings(t, 0)
	late := existsBindings(t, 499)
	if early > 8 {
		t.Errorf("early witness examined %d candidates, want at most a handful", early)
	}
	if late < 400 {
		t.Errorf("late witness examined %d candidates, want ~500", late)
	}
	if early*10 >= late {
		t.Errorf("early witness (%d bindings) not an order cheaper than late (%d)", early, late)
	}
}

// TestExistsNoWitness: when no candidate satisfies, every candidate must
// still be examined and the result must be empty — short-circuiting must
// not turn into under-evaluation.
func TestExistsNoWitness(t *testing.T) {
	e := itemEngine(t, 100, 0, 1000) // witness value 7 nowhere present
	res, tr := tracedQuery(t, e, `select guide where exists X in guide.item : X = 7`)
	if len(res.Rows) != 0 {
		t.Errorf("want no rows, got %d", len(res.Rows))
	}
	if b := tr.Stats()["bindings"]; b < 100 {
		t.Errorf("unsatisfied exists examined only %d candidates, want all 100", b)
	}
}

// TestExistentialNullBindNoShadow is the regression test for the
// null-binding shadow bug: an empty existential generator null-binds its
// annotation variables, and used to null-bind even variables already bound
// by an enclosing strict generator — wiping out, e.g., the T bound by
// <add at T> when a where-clause path reusing T matched nothing.
func TestExistentialNullBindNoShadow(t *testing.T) {
	e, _, _ := paperEngine(t)

	// Baseline: the (R, T) pairs the strict generator produces.
	base, err := e.Query(`select T from guide.<add at T>restaurant R`)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) == 0 {
		t.Fatal("baseline query produced no rows")
	}

	// The hoistable path R.<rem at T>zzz matches nothing (no zzz arcs), so
	// its existential generator is empty and null-binds. The disjunct
	// T >= 1Jan80 is then the only way a row survives — true for every
	// real add-time, false for a shadowed null T.
	// Compare the T column values only: the rem annotation in the where
	// clause legitimately changes T's default column label, but the times
	// themselves must be the strict generator's, not nulls.
	times := func(res *Result) []string {
		var out []string
		for _, row := range res.Rows {
			v, ok := row.Cells[0].Value()
			if !ok {
				out = append(out, "<null>")
				continue
			}
			out = append(out, v.String())
		}
		return out
	}
	want := fmt.Sprint(times(base))

	got, err := e.Query(`select T from guide.<add at T>restaurant R where R.<rem at T>zzz = "x" or T >= 1Jan80`)
	if err != nil {
		t.Fatal(err)
	}
	if g := fmt.Sprint(times(got)); g != want {
		t.Errorf("empty existential generator shadowed bound T: want %s, got %s", want, g)
	}
}

// TestParseCacheRotation exercises the two-generation parse cache: a
// standing query must keep its parsed form across cache churn past the
// limit (promotion from the old generation), total retention must stay
// bounded, and an entry idle for two full generations must be dropped.
func TestParseCacheRotation(t *testing.T) {
	e := NewEngine()
	ctx := t.Context()
	const standing = `select guide.restaurant`

	q1, err := e.cachedQuery(ctx, standing)
	if err != nil {
		t.Fatal(err)
	}

	churn := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, err := e.cachedQuery(ctx, fmt.Sprintf("select guide.l%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// One generation of churn rotates the standing entry into the old
	// generation; re-requesting it must return the same parsed object.
	churn(0, cacheLimit)
	q2, err := e.cachedQuery(ctx, standing)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Error("standing query re-parsed after one generation of churn; want promotion from old generation")
	}

	// Bounded retention: never more than two generations resident.
	churn(cacheLimit, 3*cacheLimit)
	if total := len(e.cache) + len(e.cacheOld); total > 2*cacheLimit {
		t.Errorf("cache retains %d entries, want <= %d", total, 2*cacheLimit)
	}

	// The standing entry was not touched during the last two generations
	// of churn, so it must have aged out: a fresh parse yields a new object.
	q3, err := e.cachedQuery(ctx, standing)
	if err != nil {
		t.Fatal(err)
	}
	if q1 == q3 {
		t.Error("standing query survived two untouched generations; eviction is not bounding the cache")
	}
}

// TestRowKeyAllocs guards the dedup hot path: appending a row key into a
// reused buffer must not allocate.
func TestRowKeyAllocs(t *testing.T) {
	row := Row{Cells: []Cell{
		{Label: "R", b: binding{kind: bValue, val: value.Str("thai garden")}},
		{Label: "T", b: binding{kind: bValue, val: value.Int(42)}},
	}}
	kb := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(200, func() {
		kb = row.appendKey(kb[:0])
	})
	if allocs != 0 {
		t.Errorf("row.appendKey allocates %.1f per call on a warm buffer, want 0", allocs)
	}
}

// TestStepMatchAllocs guards the per-arc label match: once a step context
// is initialized, matching candidate labels must not allocate, interned or
// not.
func TestStepMatchAllocs(t *testing.T) {
	label := "restaurant"
	symbol.Intern(label)
	var st stepCtx
	st.init(&PathStep{Label: label})
	if !st.match(label) {
		t.Fatal("step does not match its own label")
	}
	allocs := testing.AllocsPerRun(200, func() {
		st.match(label)
		st.match("other")
	})
	if allocs != 0 {
		t.Errorf("stepCtx.match allocates %.1f per call, want 0", allocs)
	}
}

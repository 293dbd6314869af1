package lore

import (
	"fmt"
	"testing"

	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/timestamp"
)

// TestLoreApplySetIndexIsODelta: lore.Store.ApplySet folds each step into
// the database's shared index, so a query after every one of 100 steps
// never rebuilds it.
func TestLoreApplySetIndexIsODelta(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	store, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	ev := guidegen.NewEvolver(9, 40)
	if err := store.PutDOEM("guide", doem.New(ev.DB)); err != nil {
		t.Fatal(err)
	}
	ig, err := store.IndexedDOEM("guide") // whatever the REPRO_NOINDEX default
	if err != nil {
		t.Fatal(err)
	}
	eng := lorel.NewEngine()
	eng.Register("guide", ig)
	query := func() {
		t.Helper()
		err := store.ViewDOEM("guide", func(*doem.Database) error {
			_, err := eng.Query(`select guide.restaurant.price`)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	query()
	before := obs.Snapshot().Counter("index_builds_total")
	at := timestamp.MustParse("1Jan97")
	for i := 0; i < 100; i++ {
		at = at.Add(3600e9)
		if err := store.ApplySet("guide", at, ev.Step(5)); err != nil {
			t.Fatal(fmt.Errorf("step %d: %w", i, err))
		}
		query()
	}
	if got := obs.Snapshot().Counter("index_builds_total") - before; got != 0 {
		t.Fatalf("100 ApplySet steps rebuilt the index %d times, want 0", got)
	}
}

package qss

import (
	"testing"

	"repro/internal/guidegen"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/repl"
	"repro/internal/timestamp"
	"repro/internal/wal"
	"repro/internal/wrapper"
)

// indexBuilds reads the process-wide full-rebuild counter of the
// secondary indexes.
func indexBuilds() int64 { return obs.Snapshot().Counter("index_builds_total") }

// TestPollIndexWorkIsODelta pins, by count rather than by clock, that a
// poll folds its step into the filter's index instead of rebuilding it:
// after one warm-up poll, 100 plain, 100 WAL-logged and 100 replicated
// polls of an evolving source (creations, updates, and removals whose
// collection deletes subtrees) leave index_builds_total unchanged, with
// incremental matching off so every poll reads the index. Swapping the
// database (Truncate) or the wrapper (a SetIndexing flip) costs exactly
// one rebuild.
func TestPollIndexWorkIsODelta(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	modes := []struct {
		name  string
		setup func(t *testing.T, svc *Service)
	}{
		{"plain", func(*testing.T, *Service) {}},
		{"wal", func(t *testing.T, svc *Service) {
			if err := svc.EnableWAL(t.TempDir(), &wal.Options{Sync: wal.SyncNever}); err != nil {
				t.Fatal(err)
			}
		}},
		{"replicated", func(t *testing.T, svc *Service) {
			node, err := repl.Open(t.TempDir(), NewReplState(svc), repl.Config{ID: "a"})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { node.Close() })
			if err := svc.EnableReplication(node); err != nil {
				t.Fatal(err)
			}
			if err := node.Promote(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			ev := guidegen.NewEvolver(5, 40)
			src := wrapper.NewMutable(ev.DB)
			svc := NewService(nil)
			svc.SetIndexing(true) // whatever the REPRO_NOINDEX default
			svc.SetIncremental(false)
			m.setup(t, svc)
			defer svc.Close()
			if err := svc.Subscribe(Subscription{
				Name: "R", SourceName: "guide", Source: src,
				Polling: `select guide.restaurant`,
				Filter:  `select R.restaurant<cre at T> where T > t[-1]`,
			}); err != nil {
				t.Fatal(err)
			}
			at := timestamp.MustParse("1Jan97")
			poll := func() {
				t.Helper()
				at = at.Add(3600e9)
				if _, err := svc.Poll("R", at); err != nil {
					t.Fatal(err)
				}
			}
			evolve := func() {
				if err := src.Mutate(func(*oem.Database) error { ev.Step(5); return nil }); err != nil {
					t.Fatal(err)
				}
			}
			poll() // warm-up: the filter builds the tables once
			before := indexBuilds()
			for i := 0; i < 100; i++ {
				evolve()
				poll()
			}
			if got := indexBuilds() - before; got != 0 {
				t.Fatalf("100 polls rebuilt the index %d times, want 0", got)
			}
			d, _, err := svc.History("R")
			if err != nil {
				t.Fatal(err)
			}
			if d.Version() < 50 {
				t.Fatalf("only %d of 100 polls changed the history", d.Version())
			}
			for _, swap := range []struct {
				name string
				do   func()
			}{
				{"truncate", func() {
					if err := svc.Truncate("R", at.Add(-50*3600e9)); err != nil {
						t.Fatal(err)
					}
				}},
				{"indexing flip", func() { svc.SetIndexing(false); svc.SetIndexing(true) }},
			} {
				if m.name == "replicated" && swap.name == "truncate" {
					continue // refused under replication
				}
				swap.do()
				before := indexBuilds()
				for i := 0; i < 10; i++ {
					evolve()
					poll()
				}
				if got := indexBuilds() - before; got != 1 {
					t.Fatalf("%s then 10 polls rebuilt the index %d times, want 1", swap.name, got)
				}
			}
		})
	}
}

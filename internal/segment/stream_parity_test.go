package segment

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/index"
	"repro/internal/lorel"
)

// TestInternStreamParity is the cross-store property test for the
// interned-label evaluator: the raw monolithic database, its index, the
// segmented store and a parallel-4 engine over the segmented store must
// return byte-identical results on randomized Chorel queries. Each seed
// builds fresh databases, so the build-time label canonicalization and
// the symbol-keyed index tables are exercised, not just the query paths.
func TestInternStreamParity(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 4; seed++ {
		sealRng := rand.New(rand.NewSource(seed * 104729))
		dir := filepath.Join(t.TempDir(), "store")
		mono, st := buildPair(t, dir, seed, func(i int) bool { return sealRng.Intn(5) == 0 }, nil)

		raw := lorel.NewEngine()
		raw.Register("guide", mono)
		idx := lorel.NewEngine()
		idx.Register("guide", index.NewGraph(mono))
		seg := lorel.NewEngine()
		seg.Register("guide", st.Graph())
		par := lorel.NewEngine()
		par.Register("guide", st.Graph())
		par.SetParallelism(4)

		steps := mono.Steps()
		polls := steps[:len(steps)/2+1]
		engines := []struct {
			name string
			e    *lorel.Engine
		}{{"indexed", idx}, {"segmented", seg}, {"parallel", par}}
		raw.SetPollTimes(polls)
		for _, en := range engines {
			en.e.SetPollTimes(polls)
		}

		rng := rand.New(rand.NewSource(seed * 7919))
		times := candidateTimes(mono)
		for i := 0; i < 25; i++ {
			q := randomQuery(rng, times)
			res, err := raw.Query(q)
			if err != nil {
				t.Fatalf("seed %d raw %q: %v", seed, q, err)
			}
			want := res.String()
			for _, en := range engines {
				res, err := en.e.Query(q)
				if err != nil {
					t.Fatalf("seed %d engine %s %q: %v", seed, en.name, q, err)
				}
				if got := res.String(); got != want {
					t.Errorf("seed %d engine %s diverges from raw for %q:\nwant:\n%s\ngot:\n%s",
						seed, en.name, q, want, got)
				}
				total++
			}
		}
		st.Close()
	}
	if total < 100 {
		t.Fatalf("parity matrix ran only %d comparisons, want >= 100", total)
	}
}

// TestInternParityExistsShortCircuit pins byte-parity on the query shape
// the exists fix changed, across stores: a where-clause exists with an
// early witness and one with no witness.
func TestInternParityExistsShortCircuit(t *testing.T) {
	queries := []string{
		`select R from guide.restaurant R where exists N in R.name : N like "%a%"`,
		`select R from guide.restaurant R where exists N in R.name : N = "no such restaurant"`,
		`select count(guide.restaurant.name)`,
	}
	dir := filepath.Join(t.TempDir(), "store")
	mono, st := buildPair(t, dir, 3, func(i int) bool { return i%3 == 0 }, nil)
	defer st.Close()
	engines := []struct {
		name string
		g    lorel.Graph
		par  int
	}{
		{"raw", mono, 1},
		{"indexed", index.NewGraph(mono), 1},
		{"segmented", st.Graph(), 1},
		{"parallel", st.Graph(), 4},
	}
	var want []string
	for _, en := range engines {
		e := lorel.NewEngine()
		e.Register("guide", en.g)
		e.SetParallelism(en.par)
		for qi, q := range queries {
			res, err := e.Query(q)
			if err != nil {
				t.Fatalf("%s %q: %v", en.name, q, err)
			}
			got := res.String()
			if len(want) <= qi {
				want = append(want, got)
			} else if got != want[qi] {
				t.Errorf("%s diverges for %q:\nwant:\n%s\ngot:\n%s", en.name, q, want[qi], got)
			}
		}
	}
}

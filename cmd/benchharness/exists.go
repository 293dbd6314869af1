package main

import (
	"fmt"
	"testing"

	"repro/internal/doem"
	"repro/internal/index"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/value"
)

// newExistsDB builds the early-exit workload: the root carries n "item"
// arcs to integer atoms, with the single witness value 7 at position pos.
func newExistsDB(n, pos int) *doem.Database {
	db := oem.New()
	for i := 0; i < n; i++ {
		v := int64(i) + 1000
		if i == pos {
			v = 7
		}
		c := db.CreateNode(value.Int(v))
		if err := db.AddArc(db.Root(), "item", c); err != nil {
			panic(err)
		}
	}
	return doem.New(db)
}

// existsEngine wraps d in an indexed graph and a fresh engine.
func existsEngine(d *doem.Database) *lorel.Engine {
	e := lorel.NewEngine()
	e.Register("guide", index.NewGraph(d))
	return e
}

const existsQuery = `select guide where exists X in guide.item : X = 7`

func b16() {
	fmt.Println("\n-- B16: exists early exit --")
	// With the witness first, exists must cost a small constant; with it
	// last, the full scan. The ratio is the evidence that work is
	// proportional to the witness position.
	n := scale(10000)
	eEarly := existsEngine(newExistsDB(n, 0))
	eLate := existsEngine(newExistsDB(n, n-1))
	query := func(e *lorel.Engine) func() {
		return func() {
			if _, err := e.Query(existsQuery); err != nil {
				panic(err)
			}
		}
	}
	earlyNs, lateNs := measure(query(eEarly)), measure(query(eLate))
	ratio := float64(lateNs) / float64(earlyNs)
	fmt.Printf("  exists early-exit: witness-first %s, witness-last %s (%.1fx)\n",
		earlyNs, lateNs, ratio)

	check("B16b", "exists cost proportional to witness position (late/early >= 5x)",
		ratio >= 5)
}

// runExistsJSON is B16 in JSON form. The gated headline is the exists
// early-exit ratio (witness-last over witness-first cost; a collapse back
// toward 1 means exists is materializing again).
func runExistsJSON(report *benchReport, bench func(string, func(*testing.B)) testing.BenchmarkResult) error {
	obs.SetEnabled(false)
	nsOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
	run := func(name string, e *lorel.Engine) float64 {
		return nsOp(bench(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(existsQuery); err != nil {
					panic(err)
				}
			}
		}))
	}
	const n = 10000
	early := run("exists-witness-first", existsEngine(newExistsDB(n, 0)))
	late := run("exists-witness-last", existsEngine(newExistsDB(n, n-1)))
	report.ExistsEarlyExitRatio = late / early

	obs.SetEnabled(true)
	return nil
}

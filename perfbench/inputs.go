package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/oem"
	"repro/internal/timestamp"
)

// Every input of a run derives from its --seed through the functions in
// this file, so that the same seed gives the same inputs
// (inputs_test.go pins that).

// epoch is the first poll time; poll k of an episode runs k synthetic
// hours later, so histories do not depend on the wall clock.
var epoch = timestamp.MustParse("1Jan97")

func pollTime(k int) timestamp.Time { return epoch.Add(time.Duration(k) * time.Hour) }

// newEvolvers builds n guide sources of the given size, source i seeded
// with seed+i.
func newEvolvers(seed int64, n, restaurants int) []*guidegen.Evolver {
	evs := make([]*guidegen.Evolver, n)
	for i := range evs {
		evs[i] = guidegen.NewEvolver(seed+int64(i), restaurants)
	}
	return evs
}

// restaurantNames lists the names of the restaurants under db's root.
func restaurantNames(db *oem.Database) []string {
	var names []string
	for _, r := range db.OutLabeled(db.Root(), "restaurant") {
		for _, n := range db.OutLabeled(r.Child, "name") {
			if v, ok := db.Value(n.Child); ok {
				names = append(names, v.AsString())
			}
		}
	}
	return names
}

// fanoutShapes are the eight filter shapes of poll-fanout-repl; the first
// is the paper's standing filter (Section 6), restaurants created since the
// previous poll, which poll-bigdb uses alone. The first four are
// fresh-guarded on labels the evolver changes, the next three
// fresh-guarded on labels it never changes (so incremental matching can
// skip them), and the last is unguarded and notifies on every poll.
var fanoutShapes = []string{
	`select %[1]s.restaurant<cre at T> where T > t[-1]`,
	`select NV from %[1]s.restaurant.price<upd at T to NV> where T > t[-1]`,
	`select C from %[1]s.restaurant.<add at T>comment C where T > t[-1]`,
	`select P from %[1]s.restaurant.<rem at T>parking P where T > t[-1]`,
	`select A from %[1]s.restaurant.<add at T>address A where T > t[-1]`,
	`select NV from %[1]s.restaurant.cuisine<upd at T to NV> where T > t[-1]`,
	`select L from %[1]s.<add at T>parking-lot L where T > t[-1]`,
	`select X.name from %[1]s.restaurant X where X.cuisine = "Thai"`,
}

// fanoutSub names standing subscription i of poll-fanout-repl and gives
// its filter; shape 0 is the creation filter the output check follows.
func fanoutSub(i int) (name, filter string, isCre bool) {
	name = fmt.Sprintf("S%03d", i)
	shape := i % len(fanoutShapes)
	return name, fmt.Sprintf(fanoutShapes[shape], name), shape == 0
}

// History shape of adhoc-history: restaurants, daily steps, ops per step.
const (
	histRestaurants = 1000
	histSteps       = 400
	histOps         = 10
)

// buildHistory builds the adhoc-history DOEM database.
func buildHistory(seed int64) (*doem.Database, error) {
	initial, h := guidegen.GenerateHistory(seed, histRestaurants, histSteps, histOps)
	return doem.FromHistory(initial, h)
}

// queryTemplates are the seven ad-hoc Chorel query shapes. Each is
// rendered with constants drawn across the whole history by queryGen.
var queryTemplates = []string{
	"snapshot",    // <at T>
	"upd-join",    // <upd at T to NV> joined with the name
	"add-window",  // <add at T> in a time window
	"rem-window",  // <rem at T> in a time window
	"annot-where", // annotated path in the where clause
	"exists",      // existential over a snapshot
	"count-at",    // count(...<at T>)
}

var cuisines = []string{"Thai", "Indian", "Italian", "Mexican", "Japanese", "French", "Ethiopian", "Greek"}

// queryGen draws the ad-hoc query mix of one client.
type queryGen struct{ rng *rand.Rand }

// newQueryGen seeds client c's query stream.
func newQueryGen(seed int64, c int) *queryGen {
	return &queryGen{rng: rand.New(rand.NewSource(seed*1000003 + int64(c)))}
}

// day draws a day of the history.
func (g *queryGen) day() timestamp.Time {
	return epoch.Add(time.Duration(g.rng.Intn(histSteps)) * 24 * time.Hour)
}

// window draws a time window of 1 to 30 days inside the history.
func (g *queryGen) window() (from, to timestamp.Time) {
	from = g.day()
	return from, from.Add(time.Duration(1+g.rng.Intn(30)) * 24 * time.Hour)
}

// next returns the template index and text of the next query.
func (g *queryGen) next() (int, string) {
	t := g.rng.Intn(len(queryTemplates))
	return t, g.render(t)
}

// render draws constants for template t.
func (g *queryGen) render(t int) string {
	switch queryTemplates[t] {
	case "snapshot":
		return fmt.Sprintf(`select N from guide.<at %s>restaurant R, R.name N where R.cuisine = %q`,
			g.day(), cuisines[g.rng.Intn(len(cuisines))])
	case "upd-join":
		from, to := g.window()
		return fmt.Sprintf(`select N, T, NV from guide.restaurant R, R.name N, R.price<upd at T to NV> where T >= %s and T < %s`, from, to)
	case "add-window":
		from, to := g.window()
		return fmt.Sprintf(`select R, C from guide.restaurant R, R.<add at T>comment C where T >= %s and T < %s`, from, to)
	case "rem-window":
		from, to := g.window()
		return fmt.Sprintf(`select R, T from guide.restaurant R, R.<rem at T>parking P where T >= %s and T < %s`, from, to)
	case "annot-where":
		from, to := g.window()
		return fmt.Sprintf(`select N from guide.restaurant R, R.name N where R.<add at T>comment = "updated info" and T >= %s and T < %s`, from, to)
	case "exists":
		return fmt.Sprintf(`select N from guide.<at %s>restaurant R, R.name N where exists P in R.price : P > %d`,
			g.day(), 5+g.rng.Intn(40))
	default: // count-at
		return fmt.Sprintf(`select count(guide.<at %s>restaurant.comment) as n`, g.day())
	}
}

package lorel_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/index"
	"repro/internal/lorel"
	"repro/internal/oem"
)

// absentLabel is a label no generated database carries; steps on it must
// match nothing on every graph, including the symbol-keyed index.
const absentLabel = "walk-oracle-absent"

// labelLayers returns, per depth below the root, every arc label ever
// present at that depth in d, sorted — so random paths mostly follow
// real structure instead of dying at the first step.
func labelLayers(d *doem.Database) [][]string {
	var layers [][]string
	frontier := []oem.NodeID{d.Root()}
	seenNode := map[oem.NodeID]bool{d.Root(): true}
	for len(frontier) > 0 {
		seen := map[string]bool{}
		var next []oem.NodeID
		for _, n := range frontier {
			for _, a := range d.OutAll(n) {
				seen[a.Label] = true
				if !seenNode[a.Child] {
					seenNode[a.Child] = true
					next = append(next, a.Child)
				}
			}
		}
		if len(seen) == 0 {
			break
		}
		var layer []string
		for l := range seen {
			layer = append(layer, l)
		}
		sort.Strings(layer)
		layers = append(layers, layer)
		frontier = next
	}
	return layers
}

// pathGen draws random path steps over a label alphabet and a set of
// candidate instants, numbering annotation variables so that one query
// never binds a name twice.
type pathGen struct {
	rng    *rand.Rand
	layers [][]string
	times  []string
	vars   int
	depth  int // depth below the root the next step starts from
}

func (g *pathGen) label() string {
	if g.rng.Intn(10) == 0 {
		return absentLabel
	}
	layer := g.layers[min(g.depth, len(g.layers)-1)]
	g.depth++
	return layer[g.rng.Intn(len(layer))]
}

func (g *pathGen) v(prefix string) string {
	g.vars++
	return fmt.Sprintf("%s%d", prefix, g.vars)
}

func (g *pathGen) step() string {
	depth := g.depth
	l := g.label()
	switch g.rng.Intn(12) {
	case 0:
		if len(l) > 2 {
			return l[:2] + "%"
		}
		return l
	case 1:
		return "#"
	case 2:
		return fmt.Sprintf("<add at %s>%s", g.v("A"), l)
	case 3:
		return fmt.Sprintf("<rem at %s>%s", g.v("R"), l)
	case 4:
		return fmt.Sprintf("<at %s>%s", g.times[g.rng.Intn(len(g.times))], l)
	case 5:
		return fmt.Sprintf("%s<cre at %s>", l, g.v("C"))
	case 6:
		return fmt.Sprintf("%s<upd at %s from %s to %s>", l, g.v("U"), g.v("O"), g.v("N"))
	case 7:
		quant := []string{"", "?", "*", "+"}[g.rng.Intn(4)]
		g.depth = depth
		a, b := g.label(), g.label()
		g.depth = depth
		return fmt.Sprintf("(%s.%s|%s)%s", a, b, g.label(), quant)
	default:
		return l
	}
}

func (g *pathGen) path(head string) string {
	parts := []string{head}
	for n := 1 + g.rng.Intn(3); n > 0; n-- {
		parts = append(parts, g.step())
	}
	return strings.Join(parts, ".")
}

// query draws a one- or two-generator from clause; the second generator
// ranges from the first's variable, so variable heads and environment
// chains are compared too.
func (g *pathGen) query() string {
	g.vars, g.depth = 0, 0
	q := fmt.Sprintf("select X from %s X", g.path("guide"))
	if g.rng.Intn(2) == 0 {
		q += fmt.Sprintf(", %s Y", g.path("X"))
	}
	return q
}

// TestWalkerMatchesOracle holds the streaming walker byte-identical to the
// breadth-first reference oracle — match order and environments — over
// randomized paths on raw OEM, raw DOEM and the indexed DOEM graph.
func TestWalkerMatchesOracle(t *testing.T) {
	total, nonEmpty := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		initial, h := guidegen.GenerateHistory(seed, 8, 12, 5)
		d, err := doem.FromHistory(initial, h)
		if err != nil {
			t.Fatal(err)
		}
		var times []string
		for _, s := range d.Steps() {
			times = append(times, fmt.Sprintf("%q", s.String()), fmt.Sprintf("%q", s.Add(1e9).String()))
		}
		graphs := []struct {
			name string
			g    lorel.Graph
		}{
			{"oem", lorel.NewOEMGraph(initial)},
			{"doem", d},
			{"index", index.NewGraph(d)},
		}
		gen := &pathGen{rng: rand.New(rand.NewSource(seed)), layers: labelLayers(d), times: times}
		for i := 0; i < 60; i++ {
			q := gen.query()
			for _, g := range graphs {
				e := lorel.NewEngine()
				e.Register("guide", g.g)
				e.SetPollTimes(d.Steps())
				walk, oracle, err := lorel.WalkAndOracle(e, q)
				if err != nil {
					t.Fatalf("%q: %v", q, err)
				}
				if walk != oracle {
					t.Errorf("seed %d %s: walker diverges from oracle for %q:\noracle:\n%s\nwalker:\n%s",
						seed, g.name, q, oracle, walk)
				}
				total++
				if walk != "" && !strings.HasPrefix(walk, "error:") {
					nonEmpty++
				}
			}
		}
	}
	if testing.Verbose() {
		t.Logf("%d comparisons, %d non-empty", total, nonEmpty)
	}
	if nonEmpty < total/3 {
		t.Errorf("only %d of %d comparisons matched anything; the generator is too sparse", nonEmpty, total)
	}
}

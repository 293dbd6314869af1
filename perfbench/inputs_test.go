package main

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/oemio"
)

// inputs renders every input a run with this seed generates: the poll
// workloads' sources and their first mutations, the fanout filters, the
// ad-hoc history and each client's first queries.
func inputs(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, spec := range []pollSpec{bigDB, fanoutRepl} {
		n := 2
		if spec.fanout {
			n = 1
		}
		for _, ev := range newEvolvers(seed, n, spec.restaurants) {
			for i := 0; i < 5; i++ {
				fmt.Fprintln(&buf, ev.Step(spec.stepOps))
			}
			db, err := oemio.Marshal(ev.DB)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(db)
		}
	}
	for i := 0; i < fanoutSubs; i++ {
		name, filter, cre := fanoutSub(i)
		fmt.Fprintln(&buf, name, filter, cre)
	}
	d, err := buildHistory(seed)
	if err != nil {
		t.Fatal(err)
	}
	h, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(h)
	for c := 0; c < 2; c++ {
		g := newQueryGen(seed, c)
		for i := 0; i < 200; i++ {
			tmpl, q := g.next()
			fmt.Fprintln(&buf, tmpl, q)
		}
	}
	return buf.Bytes()
}

// TestSeedDeterminesInputs pins the --seed contract: the same seed
// generates byte-identical inputs, and another seed different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	a, b := inputs(t, 7), inputs(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 generated different inputs on two calls")
	}
	if bytes.Equal(a, inputs(t, 8)) {
		t.Fatal("seeds 7 and 8 generated identical inputs")
	}
}

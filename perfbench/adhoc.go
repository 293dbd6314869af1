package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/doem"
	"repro/internal/index"
	"repro/internal/lorel"
	"repro/internal/obs"
)

const (
	// adhocSetups is how many times a run builds the history; setup_s is
	// their median, and the last one is measured.
	adhocSetups = 3
	// adhocPhase is the length of one timed phase of queries.
	adhocPhase = 2 * time.Second
	// sampleEvery and sampleCap choose the queries re-run for the output
	// check: every sampleEvery-th of a client's queries, at a seeded
	// offset, at most sampleCap per client and phase.
	sampleEvery = 32
	sampleCap   = 40
	// speedupQueries and speedupPasses size lorel.parallel_speedup_2.
	speedupQueries = 6
	speedupPasses  = 5
)

// adhocBench is the adhoc-history workload: one shared engine over the
// indexed history, queried by closed-loop clients.
type adhocBench struct {
	d    *doem.Database
	g    lorel.Graph // the indexed view registered on eng
	eng  *lorel.Engine
	gens []*queryGen // one query stream per client, continued across phases
	seed int64
}

// sample is one query kept for the output check.
type sample struct{ query, rows string }

// phase is what one timed phase of queries measured.
type phase struct {
	lat     []float64
	busy    time.Duration
	samples []sample
	// tmplTime/tmplN total latency per template.
	tmplTime []time.Duration
	tmplN    []int
}

// setupAdhoc builds the history and engine the way cmd/chorel does
// (index.Wrap, direct strategy, parallelism 1) and warms each template
// once, so the index tables exist before timing.
func setupAdhoc(seed int64) (*adhocBench, error) {
	d, err := buildHistory(seed)
	if err != nil {
		return nil, fmt.Errorf("building history: %w", err)
	}
	b := &adhocBench{d: d, g: index.Wrap(d), eng: lorel.NewEngine(), seed: seed}
	b.eng.Register("guide", b.g)
	warm := newQueryGen(seed, -1)
	for t := range queryTemplates {
		if _, err := b.eng.Query(warm.render(t)); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", queryTemplates[t], err)
		}
	}
	for c := 0; c < clients(); c++ {
		b.gens = append(b.gens, newQueryGen(seed, c))
	}
	return b, nil
}

func runAdhoc(o options) (*report, error) {
	rep := &report{}
	var b *adhocBench
	var setups []float64
	start := processStart
	for i := 0; i < adhocSetups; i++ {
		var err error
		if b, err = setupAdhoc(o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		start = time.Now()
	}
	// The run is made of phases of adhocPhase each. Traced, untraced and
	// traced phases alternate, each kind filling half of the run.
	budget := o.seconds
	var agg *layerAgg
	if o.trace {
		budget /= 2
		agg = newLayerAgg()
	}
	chunk := min(adhocPhase, budget)
	untraced := newPhase()
	var rates []float64
	var tracedOps int
	var samples []sample
	for untraced.busy < budget || (agg != nil && agg.busy < budget) {
		traced := agg != nil && (untraced.busy >= budget || agg.busy < untraced.busy)
		rep.episodes++
		if !traced {
			ph := b.run(chunk, nil, rep)
			untraced.add(ph)
			rates = append(rates, float64(len(ph.lat))/ph.busy.Seconds())
			samples = append(samples, ph.samples...)
			continue
		}
		obs.SetEnabled(true)
		before := obs.Snapshot()
		ph := b.run(chunk, agg, rep)
		agg.counters(before, obs.Snapshot())
		obs.SetEnabled(false)
		agg.busy += ph.busy
		tracedOps += len(ph.lat)
		samples = append(samples, ph.samples...)
	}
	for t, name := range queryTemplates {
		fmt.Printf("template %-12s %6d queries, mean %.3f ms\n", name, untraced.tmplN[t],
			ratio(ms(untraced.tmplTime[t]), float64(untraced.tmplN[t])))
	}
	heap := liveHeapMB()
	b.check(samples, rep)
	if agg == nil {
		rep.endToEnd(setups, untraced.lat, []float64{heap}, rates)
		return rep, nil
	}
	rep.samples, rep.setups = len(untraced.lat), len(setups)
	agg.overhead = ratio(ratio(float64(tracedOps), agg.busy.Seconds()), ratio(float64(len(untraced.lat)), untraced.busy.Seconds()))
	heaviest := 0
	for t := range queryTemplates {
		mean := func(t int) float64 { return ratio(float64(untraced.tmplTime[t]), float64(untraced.tmplN[t])) }
		if mean(t) > mean(heaviest) {
			heaviest = t
		}
	}
	agg.speedup = b.parallelSpeedup(heaviest, rep)
	agg.report(rep, false)
	return rep, nil
}

func newPhase() *phase {
	return &phase{tmplTime: make([]time.Duration, len(queryTemplates)), tmplN: make([]int, len(queryTemplates))}
}

// add accumulates another phase's measurements, except its samples.
func (p *phase) add(q *phase) {
	p.lat = append(p.lat, q.lat...)
	p.busy += q.busy
	for t := range queryTemplates {
		p.tmplTime[t] += q.tmplTime[t]
		p.tmplN[t] += q.tmplN[t]
	}
}

// run drives every client's query stream for d. A non-nil agg traces
// each query.
func (b *adhocBench) run(d time.Duration, agg *layerAgg, rep *report) *phase {
	type clientOut struct {
		phase
		attempted int
		errs      []string
		agg       *layerAgg
	}
	outs := make([]clientOut, len(b.gens))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range b.gens {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			out.phase = *newPhase()
			if agg != nil {
				out.agg = newLayerAgg()
			}
			offset := int(b.seed % sampleEvery)
			for i := 0; time.Now().Before(deadline); i++ {
				t, q := b.gens[c].next()
				ctx := context.Background()
				var tr *obs.Trace
				if agg != nil {
					tr = obs.NewTrace(q)
					ctx = obs.WithTrace(ctx, tr)
				}
				qStart := time.Now()
				res, err := b.eng.QueryContext(ctx, q)
				el := time.Since(qStart)
				out.attempted++
				if err != nil {
					out.errs = append(out.errs, fmt.Sprintf("query %q: %v", q, err))
					continue
				}
				out.lat = append(out.lat, ms(el))
				out.tmplTime[t] += el
				out.tmplN[t]++
				if i%sampleEvery == offset && len(out.samples) < sampleCap {
					out.samples = append(out.samples, sample{q, res.String()})
				}
				if tr != nil {
					out.agg.addQuery(tr.Spans(), el)
				}
			}
		}(c)
	}
	wg.Wait()
	busy := time.Since(start)
	ph := newPhase()
	for _, out := range outs {
		ph.add(&out.phase)
		ph.samples = append(ph.samples, out.samples...)
		rep.attempted += int64(out.attempted)
		for _, e := range out.errs {
			rep.fail("%s", e)
		}
		if agg != nil {
			agg.merge(out.agg)
		}
	}
	ph.busy = busy
	return ph
}

// check re-runs the sampled queries on an engine over the raw DOEM
// database (no index); rows must match byte for byte.
func (b *adhocBench) check(samples []sample, rep *report) {
	raw := lorel.NewEngine()
	raw.Register("guide", b.d)
	for _, s := range samples {
		res, err := raw.Query(s.query)
		switch {
		case err != nil:
			rep.fail("raw %q: %v", s.query, err)
		case res.String() != s.rows:
			rep.fail("indexed and raw rows differ for %q", s.query)
		}
	}
}

// parallelSpeedup times queries of template t on the shared engine
// (parallelism 1) and on a second engine over the same indexed graph at
// parallelism 2, alternating, and returns the ratio of their median pass
// times. Results must be byte-identical.
func (b *adhocBench) parallelSpeedup(t int, rep *report) float64 {
	par := lorel.NewEngine()
	par.Register("guide", b.g)
	par.SetParallelism(2)
	g := newQueryGen(b.seed, -2)
	qs := make([]string, speedupQueries)
	for i := range qs {
		qs[i] = g.render(t)
	}
	pass := func(eng *lorel.Engine) (time.Duration, []string) {
		var total time.Duration
		var rows []string
		for _, q := range qs {
			start := time.Now()
			res, err := eng.Query(q)
			total += time.Since(start)
			if err != nil {
				rep.fail("speedup %q: %v", q, err)
				return total, nil
			}
			rows = append(rows, res.String())
		}
		return total, rows
	}
	var serialRows, parRows []string
	var serial, parallel []float64
	for i := 0; i <= speedupPasses; i++ {
		ts, rs := pass(b.eng)
		tp, rp := pass(par)
		if i == 0 { // warm-up pass
			serialRows, parRows = rs, rp
			continue
		}
		serial = append(serial, ts.Seconds())
		parallel = append(parallel, tp.Seconds())
	}
	for i := range serialRows {
		if i >= len(parRows) || serialRows[i] != parRows[i] {
			rep.fail("parallel rows differ for %q", qs[i])
		}
	}
	rep.attempted += int64(2 * len(qs) * (speedupPasses + 1))
	return ratio(median(serial), median(parallel))
}

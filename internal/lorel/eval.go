package lorel

import (
	"context"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/doem"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/plan"
	"repro/internal/symbol"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// Engine evaluates Lorel and Chorel queries over registered graphs. Path
// expression heads resolve to registered database names ("guide", or a QSS
// polling-query name such as "LyttonRestaurants").
//
// Concurrency: one Engine is safe for concurrent use. Register,
// SetPollTimes and SetParallelism swap copy-on-write state under a lock;
// every evaluation snapshots that state once at the start, so concurrent
// Query/Eval calls never observe a partial update. The registered graphs
// themselves must honor the read-path contract documented on Graph:
// queries only read, so graphs may be shared across goroutines as long as
// nobody mutates them mid-query (lore.Store serializes mutation against
// readers; QSS and the trigger manager mutate only between evaluations).
type Engine struct {
	// mu guards the copy-on-write engine state below. The maps and slices
	// it protects are never mutated in place once published: writers build
	// a replacement and swap it, so a snapshot taken under RLock stays
	// valid for the whole evaluation.
	mu        sync.RWMutex
	graphs    map[string]Graph
	order     []string
	pollTimes []timestamp.Time
	workers   int

	// cache holds parsed-and-canonicalized queries by source text.
	// Evaluation never mutates a canonicalized AST, so cached queries are
	// shared across calls; standing queries (QSS filters, triggers) parse
	// once. Eviction is two-generation (see cacheInsert): cache is the hot
	// generation, cacheOld the previous one, probed on a miss.
	cacheMu  sync.Mutex
	cache    map[string]*Query
	cacheOld map[string]*Query

	// planning gates the cost-based planner (guarded by mu; see plan.go).
	// plans caches prepared plans by canonical-AST key, pinned to the
	// stats versions of the graphs they were costed against.
	planning bool
	planMu   sync.Mutex
	plans    map[string]*prepared
}

// cacheLimit bounds one generation of the parsed-query cache; total
// retention is at most two generations (2*cacheLimit entries). The old
// wholesale reset at the limit dropped the hot standing-query working set
// along with the churn that filled the cache, forcing every standing
// query to re-parse on its next poll; the two-generation scheme keeps
// anything re-requested within a generation's worth of churn (promotion
// on an old-generation hit) while still evicting one-off texts.
const cacheLimit = 256

// NewEngine returns an empty engine evaluating serially, with the
// cost-based planner on unless the package default disables it
// (REPRO_NOPLANNER / plan.SetEnabled).
func NewEngine() *Engine {
	return &Engine{
		graphs:   make(map[string]Graph),
		cache:    make(map[string]*Query),
		workers:  1,
		planning: plan.Enabled(),
		plans:    make(map[string]*prepared),
	}
}

// Register makes g available to queries under the given name. Registering
// an existing name replaces it. Queries already in flight keep evaluating
// against the graph set they started with.
func (e *Engine) Register(name string, g Graph) {
	e.mu.Lock()
	defer e.mu.Unlock()
	next := make(map[string]Graph, len(e.graphs)+1)
	for n, gr := range e.graphs {
		next[n] = gr
	}
	if _, ok := next[name]; !ok {
		e.order = append(append([]string(nil), e.order...), name)
	}
	next[name] = g
	e.graphs = next
}

// Names returns the registered database names in registration order.
func (e *Engine) Names() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]string(nil), e.order...)
}

// SetPollTimes installs the polling-time sequence used to resolve t[0],
// t[-1], ... (paper Section 6): t[0] is the last element, t[-i] counts back
// from it, and references beyond the start resolve to -infinity. Each
// evaluation snapshots the sequence when it starts, so concurrent queries
// each see one consistent sequence.
func (e *Engine) SetPollTimes(times []timestamp.Time) {
	copied := append([]timestamp.Time(nil), times...)
	e.mu.Lock()
	e.pollTimes = copied
	e.mu.Unlock()
}

// SetParallelism sets the number of worker goroutines used to evaluate the
// outermost from-clause binding stream. n <= 0 selects runtime.GOMAXPROCS.
// With n == 1 (the default) evaluation is strictly serial. Parallel
// results are byte-identical to serial ones: bindings are partitioned in
// order, per-worker shards preserve that order, and the merge deduplicates
// in the same sequence serial evaluation would.
func (e *Engine) SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.mu.Lock()
	e.workers = n
	e.mu.Unlock()
}

// Parallelism returns the configured worker count.
func (e *Engine) Parallelism() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.workers
}

// Query parses, canonicalizes and evaluates a query. Parsed queries are
// cached by source text, so repeated evaluation of standing queries pays
// only for evaluation.
func (e *Engine) Query(src string) (*Result, error) {
	return e.QueryContext(context.Background(), src)
}

// QueryContext is Query with cancellation: evaluation aborts with the
// context's error shortly after ctx is cancelled.
func (e *Engine) QueryContext(ctx context.Context, src string) (*Result, error) {
	q, err := e.cachedQuery(ctx, src)
	if err != nil {
		return nil, err
	}
	return e.EvalContext(ctx, q)
}

// cachedQuery parses and canonicalizes src through the parse cache.
func (e *Engine) cachedQuery(ctx context.Context, src string) (*Query, error) {
	tr := obs.TraceFrom(ctx)
	e.cacheMu.Lock()
	q, ok := e.cache[src]
	if !ok {
		if oq, old := e.cacheOld[src]; old {
			// Old-generation hit: promote into the hot generation so a
			// standing query re-requested under churn survives rotation.
			q, ok = oq, true
			e.cacheInsert(src, q)
		}
	}
	e.cacheMu.Unlock()
	if ok {
		mCacheHits.Inc()
		tr.StartSpan("parse").EndNote("cache=hit")
	} else {
		mCacheMisses.Inc()
		sp := tr.StartSpan("parse")
		var err error
		q, err = Parse(src)
		if err != nil {
			sp.EndNote("error=parse")
			return nil, err
		}
		if err := Canonicalize(q); err != nil {
			sp.EndNote("error=canonicalize")
			return nil, err
		}
		sp.EndNote("cache=miss")
		e.cacheMu.Lock()
		e.cacheInsert(src, q)
		e.cacheMu.Unlock()
	}
	return q, nil
}

// cacheInsert adds one parsed query under cacheMu, rotating generations
// at the limit: the hot generation becomes the old one (dropping the
// previous old generation) and a fresh hot map starts. Entries touched
// at least once per generation of churn are re-promoted before the old
// generation is dropped, so the standing-query working set is never
// wholesale-evicted by one burst of distinct texts.
func (e *Engine) cacheInsert(src string, q *Query) {
	if len(e.cache) >= cacheLimit {
		e.cacheOld = e.cache
		e.cache = make(map[string]*Query, cacheLimit)
	}
	e.cache[src] = q
}

// binding is a variable binding: a graph node (optionally viewed as of a
// past time), an atomic value, or null (an empty existential generator).
type binding struct {
	kind    bindKind
	g       Graph
	id      oem.NodeID
	val     value.Value
	hasAsOf bool
	asOf    timestamp.Time
}

type bindKind uint8

const (
	bNull bindKind = iota
	bNode
	bValue
)

func nodeBinding(g Graph, id oem.NodeID) binding {
	return binding{kind: bNode, g: g, id: id}
}

func valueBinding(v value.Value) binding { return binding{kind: bValue, val: v} }

// valueOf reads the value a binding denotes for comparisons.
func (b binding) valueOf() (value.Value, bool) {
	switch b.kind {
	case bValue:
		return b.val, true
	case bNode:
		if b.hasAsOf {
			return b.g.ValueAt(b.id, b.asOf), true
		}
		return b.g.Value(b.id)
	default:
		return value.Value{}, false
	}
}

// key returns a dedup key for result rows. Value keys carry the value's
// kind so values of different kinds with identical renderings (Int(5) and
// Real(5) both print "5") cannot collide.
func (b binding) key() string { return string(b.appendKey(nil)) }

// appendKey appends b's dedup key to dst. Dedup runs once per candidate
// row, so this path sticks to strconv appends and avoids fmt.
func (b binding) appendKey(dst []byte) []byte {
	switch b.kind {
	case bNode:
		dst = append(dst, 'n')
		dst = strconv.AppendUint(dst, uint64(graphTag(b.g)), 16)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(b.id), 10)
		if b.hasAsOf {
			dst = append(dst, '@')
			dst = appendTimeKey(dst, b.asOf)
		}
		return dst
	case bValue:
		dst = append(dst, 'v')
		dst = strconv.AppendInt(dst, int64(b.val.Kind()), 10)
		dst = append(dst, ':')
		// Per-kind appends instead of b.val.String(): the kind tag plus the
		// row key's outer length prefix keep the key injective without the
		// quoting and formatting String() pays allocations for. Times use
		// the same unix-seconds key as as-of components.
		switch b.val.Kind() {
		case value.KindInt:
			return strconv.AppendInt(dst, b.val.AsInt(), 10)
		case value.KindString:
			return append(dst, b.val.AsString()...)
		case value.KindTime:
			return appendTimeKey(dst, b.val.AsTime())
		case value.KindReal:
			return strconv.AppendFloat(dst, b.val.AsReal(), 'g', -1, 64)
		case value.KindBool:
			return strconv.AppendBool(dst, b.val.AsBool())
		default:
			return append(dst, b.val.String()...)
		}
	default:
		return append(dst, "null"...)
	}
}

// visitKey is the comparable form of a binding's identity, used for the
// per-step frontier dedup where allocating string keys would dominate.
// All bindings in one frontier come from the same path head, so the key
// does not need to discriminate graphs.
type visitKey struct {
	kind    bindKind
	id      oem.NodeID
	valKind uint8
	val     string
	hasAsOf bool
	asOf    timestamp.Time
}

func (b binding) visitKey() visitKey {
	k := visitKey{kind: b.kind}
	switch b.kind {
	case bNode:
		k.id = b.id
		k.hasAsOf = b.hasAsOf
		if b.hasAsOf {
			k.asOf = b.asOf
		}
	case bValue:
		k.valKind = uint8(b.val.Kind())
		k.val = b.val.String()
	}
	return k
}

func appendTimeKey(dst []byte, t timestamp.Time) []byte {
	if !t.IsFinite() {
		if t.Equal(timestamp.PosInf) {
			return append(dst, "+inf"...)
		}
		return append(dst, "-inf"...)
	}
	return strconv.AppendInt(dst, t.Unix(), 10)
}

// graphTag returns a per-graph discriminator for dedup keys so equal node
// ids from different registered graphs cannot collide in one result.
func graphTag(g Graph) uintptr {
	if og, ok := g.(OEMGraph); ok {
		return reflect.ValueOf(og.DB).Pointer()
	}
	v := reflect.ValueOf(g)
	switch v.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func:
		return v.Pointer()
	}
	return 0
}

// env is an immutable chain of variable bindings.
type env struct {
	parent *env
	name   string
	b      binding
}

func (e *env) extend(name string, b binding) *env {
	return &env{parent: e, name: name, b: b}
}

func (e *env) lookup(name string) (binding, bool) {
	for x := e; x != nil; x = x.parent {
		if x.name == name {
			return x.b, true
		}
	}
	return binding{}, false
}

// pathResult is one match of a path expression: the reached binding plus
// the environment extended with any annotation variables bound on the way.
type pathResult struct {
	b   binding
	env *env
}

// evaluation carries the per-query state of one Eval call: an immutable
// snapshot of the engine's graphs and polling times, the caller's context,
// and a cancellation-check counter. Engine state mutated after the
// snapshot (Register, SetPollTimes) does not affect an evaluation in
// flight, which is what makes one Engine safe for concurrent queries.
// Each parallel worker gets its own evaluation (sharing the snapshots) so
// the counter is not contended.
type evaluation struct {
	graphs    map[string]Graph
	pollTimes []timestamp.Time
	ctx       context.Context
	tick      int

	// trace is the per-query trace from the context (nil when untraced;
	// every call on a nil Trace is a no-op). Shared with forked workers —
	// Trace is internally synchronized.
	trace *obs.Trace
	// Per-evaluation stat counters: plain ints, not metrics, so the
	// per-tuple hot path pays no atomics. Each parallel worker owns its
	// forked evaluation's counters; the parent sums them after wg.Wait and
	// flushes once, which keeps collection race-clean under -race.
	bindings  int64
	dedupHits int64

	// constTimes (set by the planned executor, shared read-only across
	// forks) marks <at T> operands with no variable dependencies; atMemo
	// caches their resolved instants per evaluation, never across forks —
	// workers each build their own memo so no synchronization is needed.
	constTimes map[Expr]bool
	atMemo     map[Expr]timeMemo
}

// timeMemo is one memoized constant time-expression resolution.
type timeMemo struct {
	t  timestamp.Time
	ok bool
}

// newEvaluation snapshots the engine state for one query.
func (e *Engine) newEvaluation(ctx context.Context) *evaluation {
	tr := obs.TraceFrom(ctx)
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return &evaluation{graphs: e.graphs, pollTimes: e.pollTimes, ctx: ctx, trace: tr}
}

// fork clones the evaluation for a parallel worker: shared snapshots and
// trace, own cancellation counter, stat counters and time memo.
func (ev *evaluation) fork() *evaluation {
	return &evaluation{
		graphs:     ev.graphs,
		pollTimes:  ev.pollTimes,
		ctx:        ev.ctx,
		trace:      ev.trace,
		constTimes: ev.constTimes,
	}
}

// finish flushes the evaluation's stats to the package metrics and trace.
func (ev *evaluation) finish(start time.Time, err error) {
	mQueries.Inc()
	if err != nil {
		mQueryErrors.Inc()
	}
	mQueryNs.ObserveSince(start)
	mBindings.Add(ev.bindings)
	mDedupHits.Add(ev.dedupHits)
	ev.trace.Add("bindings", ev.bindings)
	ev.trace.Add("dedup_hits", ev.dedupHits)
}

// cancelCheckInterval is how many checkCancel calls pass between real
// context polls; checks sit on per-tuple and per-frontier hot paths, so the
// interval trades abort latency against overhead.
const cancelCheckInterval = 1024

// checkCancel polls the context every cancelCheckInterval calls.
func (ev *evaluation) checkCancel() error {
	ev.tick++
	if ev.tick%cancelCheckInterval != 0 {
		return nil
	}
	select {
	case <-ev.ctx.Done():
		return ev.ctx.Err()
	default:
		return nil
	}
}

func (ev *evaluation) pollTime(idx int) timestamp.Time {
	// idx is 0 or negative: t[0] = last poll, t[-1] = previous, ...
	i := len(ev.pollTimes) - 1 + idx
	if i < 0 || len(ev.pollTimes) == 0 {
		return timestamp.NegInf
	}
	if i >= len(ev.pollTimes) {
		return timestamp.PosInf
	}
	return ev.pollTimes[i]
}

// Eval evaluates a canonicalized query.
func (e *Engine) Eval(q *Query) (*Result, error) {
	return e.EvalContext(context.Background(), q)
}

// EvalContext evaluates a canonicalized query under a context. When the
// engine's parallelism is above one, the outermost from-clause binding
// stream is partitioned across that many workers; the merged result is
// byte-identical to serial evaluation.
func (e *Engine) EvalContext(ctx context.Context, q *Query) (*Result, error) {
	start := obs.Now()
	ev := e.newEvaluation(ctx)
	sp := ev.trace.StartSpan("eval")
	var res *Result
	var err error
	if pr := e.planFor(ev, q); pr != nil && pr.plan != nil {
		res, err = e.evalPlanned(ev, q, pr)
	} else {
		res, err = e.evalQuery(ev, q)
	}
	rows := 0
	if res != nil {
		rows = len(res.Rows)
	}
	sp.EndNote("rows=%d", rows)
	ev.finish(start, err)
	return res, err
}

func (e *Engine) evalQuery(ev *evaluation, q *Query) (*Result, error) {
	gens := make([]FromItem, 0, len(q.From)+len(q.WhereGens))
	gens = append(gens, q.From...)
	gens = append(gens, q.WhereGens...)
	strict := len(q.From) // generators at index >= strict are existential
	if w := e.Parallelism(); w > 1 {
		res, done, err := ev.evalParallel(q, gens, strict, w)
		if done {
			return res, err
		}
	}
	res := &Result{}
	seen := make(map[string]bool)
	emit := ev.emitterTo(q, seen, func(row Row) { res.Rows = append(res.Rows, row) })
	if err := ev.enumerate(gens, 0, strict, nil, emit); err != nil {
		return nil, err
	}
	return res, nil
}

// emitterTo builds the tuple sink for one evaluation: it applies the
// where clause, builds rows, and hands rows unseen in seen to sink — a
// slice append when serial, a channel send in a parallel worker.
func (ev *evaluation) emitterTo(q *Query, seen map[string]bool, sink func(Row)) func(*env) error {
	var kb []byte // reused key buffer; map lookups on string(kb) do not allocate
	return func(en *env) error {
		ev.bindings++
		if q.Where != nil {
			ok, err := ev.evalBool(en, q.Where)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		built, err := ev.buildRows(en, q.Select)
		if err != nil {
			return err
		}
		for _, row := range built {
			kb = row.appendKey(kb[:0])
			if !seen[string(kb)] {
				seen[string(kb)] = true
				sink(row)
			} else {
				ev.dedupHits++
			}
		}
		return nil
	}
}

// enumerate produces the cross product of generator bindings. Strict
// generators (from clause) eliminate the tuple when empty; existential
// generators (hoisted where paths) bind null instead, so disjunctions over
// missing paths still evaluate.
func (ev *evaluation) enumerate(gens []FromItem, i, strict int, en *env, emit func(*env) error) error {
	if err := ev.checkCancel(); err != nil {
		return err
	}
	if i == len(gens) {
		return emit(en)
	}
	g := gens[i]
	// Each binding flows into the next generator as the walker produces
	// it; no candidate slice is held, and an errStop from a downstream
	// consumer (a future limit-style sink) propagates up and stops the
	// walk.
	n := 0
	if err := ev.walkPath(en, g.Path, func(r pathResult) error {
		n++
		return ev.enumerate(gens, i+1, strict, r.env.extend(g.Var, r.b), emit)
	}); err != nil {
		return err
	}
	if n > 0 || i < strict {
		return nil // strict with no bindings: no tuples
	}
	// Existential generator with no matches: bind the range variable and
	// any annotation variables its path would have bound (and no earlier
	// generator did) to null, so the rest of the where clause still
	// evaluates.
	return ev.enumerate(gens, i+1, strict, nullBind(en, g), emit)
}

// pathAnnotVars collects the annotation variables a path binds.
func pathAnnotVars(p *PathExpr) []string {
	var vars []string
	for _, s := range p.Steps {
		for _, ann := range []*AnnotExpr{s.Arc, s.Node} {
			if ann == nil {
				continue
			}
			for _, v := range []string{ann.AtVar, ann.FromVar, ann.ToVar} {
				if v != "" {
					vars = append(vars, v)
				}
			}
		}
	}
	return vars
}

func stepBindsVars(s *PathStep) bool {
	for _, ann := range []*AnnotExpr{s.Arc, s.Node} {
		if ann != nil && (ann.AtVar != "" || ann.FromVar != "" || ann.ToVar != "") {
			return true
		}
	}
	return false
}

// expandGroup applies a regular path group to one binding: each
// application follows one of the alternative label sequences; the
// quantifier controls repetition. Group labels support '%' globs like
// ordinary steps. Bindings inherit the time-travel instant; environments
// are unchanged (groups bind no variables).
func (ev *evaluation) expandGroup(dst []pathResult, cur pathResult, grp *PathGroup) []pathResult {
	g := cur.b.g

	ss, hasSS := g.(SymSeeker)

	// followSeq walks one fixed label sequence from a node set.
	followSeq := func(start map[oem.NodeID]bool, seq []string) map[oem.NodeID]bool {
		frontier := start
		for _, label := range seq {
			next := make(map[oem.NodeID]bool)
			glob := strings.Contains(label, "%")
			if hasSS && !glob && !cur.b.hasAsOf {
				// Exact labels over the current snapshot come straight
				// from the adjacency index; the frontier is a set, so
				// arc order is immaterial here. A label never interned
				// resolves to symbol.None and reaches nothing.
				sym, _ := symbol.Lookup(label)
				for n := range frontier {
					for _, a := range ss.OutLabeledSym(n, sym) {
						next[a.Child] = true
					}
				}
				frontier = next
				if len(frontier) == 0 {
					break
				}
				continue
			}
			for n := range frontier {
				for _, a := range ev.liveArcs(cur.b, g, n) {
					if glob {
						if !value.Str(a.Label).Like(label) {
							continue
						}
					} else if a.Label != label {
						continue
					}
					next[a.Child] = true
				}
			}
			frontier = next
			if len(frontier) == 0 {
				break
			}
		}
		return frontier
	}

	// applyOnce maps a node set through any one alternative.
	applyOnce := func(start map[oem.NodeID]bool) map[oem.NodeID]bool {
		out := make(map[oem.NodeID]bool)
		for _, alt := range grp.Alts {
			for n := range followSeq(start, alt) {
				out[n] = true
			}
		}
		return out
	}

	start := map[oem.NodeID]bool{cur.b.id: true}
	var reached map[oem.NodeID]bool
	switch grp.Quant {
	case 0:
		reached = applyOnce(start)
	case '?':
		reached = applyOnce(start)
		reached[cur.b.id] = true
	case '*', '+':
		seen := make(map[oem.NodeID]bool)
		frontier := start
		if grp.Quant == '*' {
			seen[cur.b.id] = true
		}
		for len(frontier) > 0 {
			next := applyOnce(frontier)
			frontier = make(map[oem.NodeID]bool)
			for n := range next {
				if !seen[n] {
					seen[n] = true
					frontier[n] = true
				}
			}
		}
		reached = seen
	}

	ids := make([]oem.NodeID, 0, len(reached))
	for n := range reached {
		ids = append(ids, n)
	}
	sortNodeIDs(ids)
	out := dst
	for _, n := range ids {
		nb := cur.b
		nb.id = n
		out = append(out, pathResult{b: nb, env: cur.env})
	}
	return out
}

func sortNodeIDs(ids []oem.NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// liveArcs returns the arcs of n visible to an unannotated step: the
// current snapshot, or the snapshot as of the binding's time-travel instant.
func (ev *evaluation) liveArcs(b binding, g Graph, n oem.NodeID) []oem.Arc {
	if !b.hasAsOf {
		return g.Out(n)
	}
	if ts, ok := g.(TimeSeeker); ok {
		return ts.OutAt(n, b.asOf)
	}
	var arcs []oem.Arc
	for _, a := range g.OutAll(n) {
		if g.ArcLiveAt(a, b.asOf) {
			arcs = append(arcs, a)
		}
	}
	return arcs
}

// exactLabel reports whether the step's label matches by string equality
// only (no '%' globbing), making it servable from a label index.
func exactLabel(step *PathStep) bool {
	return step.Quoted || !strings.Contains(step.Label, "%")
}

func annotKindFor(op AnnotOp) doem.AnnotKind {
	if op == OpAdd {
		return doem.AnnotAdd
	}
	return doem.AnnotRem
}

// evalTime evaluates an expression to a timestamp (coercing strings and
// time values). Time operands the planner proved environment-independent
// resolve once per evaluation instead of once per binding (constant
// <at T> hoisting).
func (ev *evaluation) evalTime(en *env, ex Expr) (timestamp.Time, bool, error) {
	if ev.constTimes != nil && ev.constTimes[ex] {
		if m, ok := ev.atMemo[ex]; ok {
			return m.t, m.ok, nil
		}
		t, ok, err := ev.evalTimeUncached(en, ex)
		if err != nil {
			return t, ok, err
		}
		if ev.atMemo == nil {
			ev.atMemo = make(map[Expr]timeMemo)
		}
		ev.atMemo[ex] = timeMemo{t: t, ok: ok}
		return t, ok, nil
	}
	return ev.evalTimeUncached(en, ex)
}

func (ev *evaluation) evalTimeUncached(en *env, ex Expr) (timestamp.Time, bool, error) {
	bs, err := ev.evalOperand(en, ex)
	if err != nil {
		return timestamp.Time{}, false, err
	}
	for _, b := range bs {
		v, ok := b.valueOf()
		if !ok {
			continue
		}
		switch v.Kind() {
		case value.KindTime:
			return v.AsTime(), true, nil
		case value.KindString:
			if t, err := timestamp.Parse(v.AsString()); err == nil {
				return t, true, nil
			}
		case value.KindInt:
			return timestamp.FromUnix(v.AsInt()), true, nil
		}
	}
	return timestamp.Time{}, false, nil
}

// evalOperand evaluates an expression to its set of bindings.
func (ev *evaluation) evalOperand(en *env, ex Expr) ([]binding, error) {
	switch x := ex.(type) {
	case *ConstExpr:
		return []binding{valueBinding(x.Val)}, nil
	case *TimeRefExpr:
		return []binding{valueBinding(value.Time(ev.pollTime(x.Index)))}, nil
	case *PathValueExpr:
		var bs []binding
		err := ev.walkPath(en, x.Path, func(r pathResult) error {
			bs = append(bs, r.b)
			return nil
		})
		return bs, err
	case *BinExpr:
		switch x.Op {
		case "+", "-", "*", "/":
			ls, err := ev.evalOperand(en, x.L)
			if err != nil {
				return nil, err
			}
			rs, err := ev.evalOperand(en, x.R)
			if err != nil {
				return nil, err
			}
			var out []binding
			for _, l := range ls {
				lv, lok := l.valueOf()
				if !lok {
					continue
				}
				for _, r := range rs {
					rv, rok := r.valueOf()
					if !rok {
						continue
					}
					if v, ok := value.Arith(x.Op, lv, rv); ok {
						out = append(out, valueBinding(v))
					}
				}
			}
			return out, nil
		default:
			// A boolean expression in operand position.
			ok, err := ev.evalBool(en, x)
			if err != nil {
				return nil, err
			}
			return []binding{valueBinding(value.Bool(ok))}, nil
		}
	case *NotExpr, *ExistsExpr:
		ok, err := ev.evalBool(en, ex)
		if err != nil {
			return nil, err
		}
		return []binding{valueBinding(value.Bool(ok))}, nil
	case *AggExpr:
		v, err := ev.evalAggregate(en, x)
		if err != nil {
			return nil, err
		}
		return []binding{valueBinding(v)}, nil
	}
	return nil, errf(ex.Pos(), "cannot evaluate expression %s", ex)
}

// evalAggregate folds an aggregate function over a path's matches in the
// current tuple environment. count tallies matches; min/max/sum/avg fold
// the coercible numeric (or, for min/max, comparable) values and yield null
// on an empty fold.
func (ev *evaluation) evalAggregate(en *env, agg *AggExpr) (value.Value, error) {
	// The fold consumes the walker's stream directly instead of
	// materializing the match slice first; a count over a large path
	// holds no intermediate state but the counter.
	var acc value.Value
	var cnt int64
	n := 0
	fold := func(r pathResult) error {
		cnt++
		if agg.Fn == "count" {
			return nil
		}
		v, ok := r.b.valueOf()
		if !ok || v.IsComplex() || v.Kind() == value.KindNull {
			return nil
		}
		if n == 0 {
			acc = v
			n++
			return nil
		}
		switch agg.Fn {
		case "min":
			if cmp, ok := value.Compare(v, acc); ok && cmp < 0 {
				acc = v
			}
		case "max":
			if cmp, ok := value.Compare(v, acc); ok && cmp > 0 {
				acc = v
			}
		case "sum", "avg":
			if s, ok := value.Arith("+", acc, v); ok {
				acc = s
			} else {
				return nil
			}
		}
		n++
		return nil
	}
	if err := ev.walkPath(en, agg.Path, fold); err != nil {
		return value.Value{}, err
	}
	if agg.Fn == "count" {
		return value.Int(cnt), nil
	}
	if n == 0 {
		return value.Null(), nil
	}
	if agg.Fn == "avg" {
		if a, ok := value.Arith("/", acc, value.Int(int64(n))); ok {
			return a, nil
		}
		return value.Null(), nil
	}
	return acc, nil
}

// evalBool evaluates an expression as a predicate. Comparisons over path
// sets are existential; coercion failures and null bindings yield false
// (the Lorel "forgiving" semantics of Example 4.1).
func (ev *evaluation) evalBool(en *env, ex Expr) (bool, error) {
	switch x := ex.(type) {
	case *BinExpr:
		switch x.Op {
		case "and":
			l, err := ev.evalBool(en, x.L)
			if err != nil || !l {
				return false, err
			}
			return ev.evalBool(en, x.R)
		case "or":
			l, err := ev.evalBool(en, x.L)
			if err != nil || l {
				return l, err
			}
			return ev.evalBool(en, x.R)
		case "=", "!=", "<", "<=", ">", ">=":
			return ev.evalCompare(en, x)
		case "like":
			ls, err := ev.evalOperand(en, x.L)
			if err != nil {
				return false, err
			}
			rs, err := ev.evalOperand(en, x.R)
			if err != nil {
				return false, err
			}
			for _, l := range ls {
				lv, lok := l.valueOf()
				if !lok {
					continue
				}
				for _, r := range rs {
					rv, rok := r.valueOf()
					if !rok || rv.Kind() != value.KindString {
						continue
					}
					if lv.Like(rv.AsString()) {
						return true, nil
					}
				}
			}
			return false, nil
		default:
			return false, errf(x.P, "operator %q is not a predicate", x.Op)
		}
	case *NotExpr:
		ok, err := ev.evalBool(en, x.E)
		return !ok, err
	case *ExistsExpr:
		// Stream candidates and stop at the first witness. Materializing
		// the whole x.In result set before testing a single candidate made
		// exists pay for every match even when the first one satisfied;
		// this walk does work proportional to the first witness's position.
		found := false
		err := ev.walkPath(en, x.In, func(r pathResult) error {
			ev.bindings++ // one candidate examined
			ok, err := ev.evalBool(r.env.extend(x.Var, r.b), x.Cond)
			if err != nil {
				return err
			}
			if ok {
				found = true
				return errStop
			}
			return nil
		})
		if err != nil && err != errStop {
			return false, err
		}
		return found, nil
	case *ConstExpr:
		return x.Val.Truthy(), nil
	case *PathValueExpr:
		bs, err := ev.evalOperand(en, ex)
		if err != nil {
			return false, err
		}
		for _, b := range bs {
			if v, ok := b.valueOf(); ok && v.Truthy() {
				return true, nil
			}
		}
		return false, nil
	case *TimeRefExpr:
		return true, nil
	}
	return false, errf(ex.Pos(), "cannot evaluate %s as a predicate", ex)
}

func (ev *evaluation) evalCompare(en *env, x *BinExpr) (bool, error) {
	ls, err := ev.evalOperand(en, x.L)
	if err != nil {
		return false, err
	}
	rs, err := ev.evalOperand(en, x.R)
	if err != nil {
		return false, err
	}
	for _, l := range ls {
		lv, lok := l.valueOf()
		if !lok {
			continue
		}
		for _, r := range rs {
			rv, rok := r.valueOf()
			if !rok {
				continue
			}
			cmp, ok := value.Compare(lv, rv)
			if !ok {
				continue
			}
			match := false
			switch x.Op {
			case "=":
				match = cmp == 0
			case "!=":
				match = cmp != 0
			case "<":
				match = cmp < 0
			case "<=":
				match = cmp <= 0
			case ">":
				match = cmp > 0
			case ">=":
				match = cmp >= 0
			}
			if match {
				return true, nil
			}
		}
	}
	return false, nil
}

// buildRows constructs result rows for one satisfied tuple. Select items
// normally evaluate to single bindings; items that still denote sets fan
// out into one row per combination.
func (ev *evaluation) buildRows(en *env, items []SelectItem) ([]Row, error) {
	cells := make([][]binding, len(items))
	single := true
	for i, item := range items {
		bs, err := ev.evalOperand(en, item.Expr)
		if err != nil {
			return nil, err
		}
		if len(bs) == 0 {
			bs = []binding{{kind: bNull}}
		}
		if len(bs) != 1 {
			single = false
		}
		cells[i] = bs
	}
	// Fast path: every item resolved to one binding — exactly one row, no
	// cross-product recursion.
	if single {
		allNull := true
		row := Row{Cells: make([]Cell, len(items))}
		for i, bs := range cells {
			row.Cells[i] = Cell{Label: items[i].Label, b: bs[0]}
			if bs[0].kind != bNull {
				allNull = false
			}
		}
		if allNull {
			return nil, nil
		}
		return []Row{row}, nil
	}
	var rows []Row
	var build func(i int, acc []Cell)
	build = func(i int, acc []Cell) {
		if i == len(items) {
			rows = append(rows, Row{Cells: append([]Cell(nil), acc...)})
			return
		}
		for _, b := range cells[i] {
			build(i+1, append(acc, Cell{Label: items[i].Label, b: b}))
		}
	}
	build(0, nil)
	// Drop rows that are entirely null.
	var kept []Row
	for _, r := range rows {
		allNull := true
		for _, c := range r.Cells {
			if c.b.kind != bNull {
				allNull = false
				break
			}
		}
		if !allNull {
			kept = append(kept, r)
		}
	}
	return kept, nil
}

package main

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// The traced breakdown. The program records spans for source-poll, parse,
// plan (inside eval), eval, diff, apply and wal-append; the benchmark adds
// its own around its calls: poll, ping, and the client's receipt of the
// notification. Stages with no span of their own are the gaps between
// these, so the stages of a poll tile its traced time:
//
//	source-poll    source-poll span
//	polling-query  source-poll end .. polling query's eval end
//	package        polling eval end .. diff start
//	diff           diff span
//	apply          apply span
//	log/replicate  wal-append span; under replication, the part of apply
//	               that is not the state fold (oplog append + ack wait)
//	incr-decide    apply (or wal-append) end .. filter parse start, or
//	               .. poll end when incremental matching skips the filter
//	filter         filter parse start .. filter eval end
//	notify/wire    filter eval end .. client receipt (or poll return)
//
// Only the lock wait before source-poll and a few clock reads fall outside
// every stage; trace.coverage shows how much.

// counted are the program's own counters and histograms read as deltas
// across traced phases.
var counted = []string{
	"index_builds_total", "index_snapshot_cache_hits_total", "index_snapshot_cache_misses_total",
	"incr_skips_total", "incr_decisions_total",
	"lorel_parse_cache_hits_total", "lorel_parse_cache_misses_total",
	"lorel_plan_cache_hits_total", "lorel_plan_cache_misses_total", "lorel_bindings_total",
	"wal_bytes_written_total", "wal_fsync_total", "repl_records_sent_total",
	"qss_wire_sent_bytes_total",
}

var histograms = []string{"index_build_ns", "wal_append_ns"}

// layerAgg accumulates the traced per-layer numbers of a run.
type layerAgg struct {
	ops   int
	total time.Duration // summed traced time of the operations
	stage map[string]time.Duration
	busy  time.Duration // summed wall time of the traced phases

	parse, plan, eval, qssSelf time.Duration
	rows, diffOps, packaged    int64
	ping                       time.Duration
	pings                      int64

	// followApply/followApplies time the follower's state fold.
	followApply   time.Duration
	followApplies int64
	c             map[string]int64
	overhead      float64 // traced over untraced ops/s
	speedup       float64 // lorel.parallel_speedup_2, adhoc-history only
}

func newLayerAgg() *layerAgg {
	return &layerAgg{stage: make(map[string]time.Duration), c: make(map[string]int64)}
}

func end(sp obs.Span) time.Duration { return sp.Start + sp.Dur }

// noteInt reads key=N from a span note.
func noteInt(note, key string) int64 {
	for _, f := range strings.Fields(note) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	return 0
}

// addPoll folds one traced poll in. total is the operation's traced time
// from the trace's start, which ends at the client's receipt when the poll
// notified; packaged is the node count the polling query packaged.
func (a *layerAgg) addPoll(spans []obs.Span, total time.Duration, packaged int) {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var src, diff, apply, walApp, poll, pollEval, filtParse, filtEval obs.Span
	applied, filtered := false, false
	var children time.Duration
	for _, sp := range spans {
		switch sp.Name {
		case "poll":
			poll = sp
			continue
		case "source-poll":
			src = sp
		case "diff":
			diff = sp
			a.diffOps += noteInt(sp.Note, "ops")
		case "apply":
			apply = sp
			applied = true
		case "wal-append":
			walApp = sp
		case "parse":
			a.parse += sp.Dur
			if applied && !filtered {
				filtParse, filtered = sp, true
			}
		case "plan":
			a.plan += sp.Dur
			continue // nested inside eval
		case "eval":
			a.eval += sp.Dur
			a.rows += noteInt(sp.Note, "rows")
			if applied {
				filtEval = sp
			} else {
				pollEval = sp
			}
		}
		children += sp.Dur
	}
	logEnd := max(end(apply), end(walApp))
	st := a.stage
	st["source-poll"] += src.Dur
	st["polling-query"] += end(pollEval) - end(src)
	st["package"] += diff.Start - end(pollEval)
	st["diff"] += diff.Dur
	st["apply"] += apply.Dur
	st["log/replicate"] += walApp.Dur
	if filtered {
		st["incr-decide"] += filtParse.Start - logEnd
		st["filter"] += end(filtEval) - filtParse.Start
		st["notify/wire"] += total - end(filtEval)
	} else {
		st["incr-decide"] += end(poll) - logEnd
	}
	a.qssSelf += poll.Dur - children
	a.total += total - poll.Start
	a.packaged += int64(packaged)
	a.ops++
}

// addQuery folds one traced ad-hoc query in; its stages are parse and eval.
func (a *layerAgg) addQuery(spans []obs.Span, total time.Duration) {
	for _, sp := range spans {
		switch sp.Name {
		case "parse":
			a.parse += sp.Dur
			a.stage["parse"] += sp.Dur
		case "plan":
			a.plan += sp.Dur
		case "eval":
			a.eval += sp.Dur
			a.stage["eval"] += sp.Dur
			a.rows += noteInt(sp.Note, "rows")
		}
	}
	a.total += total
	a.ops++
}

// addPing folds in the ping span of a trace.
func (a *layerAgg) addPing(spans []obs.Span) {
	for _, sp := range spans {
		if sp.Name == "ping" {
			a.ping += sp.Dur
			a.pings++
		}
	}
}

// merge adds a client's numbers into a.
func (a *layerAgg) merge(b *layerAgg) {
	a.ops += b.ops
	a.total += b.total
	for k, v := range b.stage {
		a.stage[k] += v
	}
	a.parse += b.parse
	a.plan += b.plan
	a.eval += b.eval
	a.qssSelf += b.qssSelf
	a.rows += b.rows
	a.diffOps += b.diffOps
	a.packaged += b.packaged
	a.ping += b.ping
	a.pings += b.pings
}

// counters adds the program's counter deltas between two snapshots.
func (a *layerAgg) counters(before, after *obs.Snap) {
	for _, n := range counted {
		a.c[n] += after.Counter(n) - before.Counter(n)
	}
	for _, n := range histograms {
		hb, ha := before.Histogram(n), after.Histogram(n)
		a.c[n+".count"] += ha.Count - hb.Count
		a.c[n+".sum"] += ha.Sum - hb.Sum
	}
}

// report sets every per-layer metric. Layers a workload does not run
// report 0. Times are per operation unless the name says otherwise.
func (a *layerAgg) report(rep *report, replicated bool) {
	if replicated && a.followApplies > 0 {
		// The primary folds each record inside the apply span, like the
		// follower does; split the span by the follower's measured fold
		// time into apply proper and log/replicate.
		fold := time.Duration(int64(a.followApply) / a.followApplies * int64(a.ops))
		fold = min(fold, a.stage["apply"])
		a.stage["log/replicate"] += a.stage["apply"] - fold
		a.stage["apply"] = fold
	}
	n := float64(a.ops)
	perOp := func(d time.Duration) float64 { return ratio(ms(d), n) }
	hit := func(hits, misses string) float64 {
		return ratio(float64(a.c[hits]), float64(a.c[hits]+a.c[misses]))
	}
	var staged time.Duration
	for _, d := range a.stage {
		staged += d
	}
	rep.set("trace.coverage", ratio(float64(staged), float64(a.total)), "ratio")
	rep.set("trace.overhead_ratio", a.overhead, "ratio")

	rep.set("wrapper.poll_ms", perOp(a.stage["source-poll"]), "ms")
	rep.set("lorel.polling_ms", perOp(a.stage["polling-query"]), "ms")
	rep.set("lorel.filter_ms", perOp(a.stage["filter"]), "ms")
	rep.set("lorel.parse_ms", perOp(a.parse), "ms")
	rep.set("lorel.plan_ms", perOp(a.plan), "ms")
	rep.set("lorel.eval_ms", perOp(a.eval-a.plan), "ms")
	rep.set("lorel.parse_cache_hit_ratio", hit("lorel_parse_cache_hits_total", "lorel_parse_cache_misses_total"), "ratio")
	rep.set("lorel.plan_cache_hit_ratio", hit("lorel_plan_cache_hits_total", "lorel_plan_cache_misses_total"), "ratio")
	rep.set("lorel.bindings_per_row", ratio(float64(a.c["lorel_bindings_total"]), float64(a.rows)), "bind/row")
	rep.set("lorel.parallel_speedup_2", a.speedup, "x")

	rep.set("qss.package_ms", perOp(a.stage["package"]), "ms")
	rep.set("qss.self_ms", perOp(a.qssSelf), "ms")
	rep.set("oemdiff.diff_ms", perOp(a.stage["diff"]), "ms")
	rep.set("oemdiff.ops_per_poll", ratio(float64(a.diffOps), n), "ops/poll")
	rep.set("oemdiff.ops_per_knode", ratio(1000*float64(a.diffOps), float64(a.packaged)), "ops/knode")
	rep.set("doem.apply_ms", perOp(a.stage["apply"]), "ms")

	rep.set("index.builds_per_poll", ratio(float64(a.c["index_builds_total"]), n), "builds/op")
	rep.set("index.build_ms", perOp(time.Duration(a.c["index_build_ns.sum"])), "ms")
	rep.set("index.snapshot_hit_ratio", hit("index_snapshot_cache_hits_total", "index_snapshot_cache_misses_total"), "ratio")
	rep.set("incr.skip_ratio", ratio(float64(a.c["incr_skips_total"]), float64(a.c["incr_decisions_total"])), "ratio")
	rep.set("incr.decide_ms", perOp(a.stage["incr-decide"]), "ms")

	rep.set("wal.append_ms", ratio(ms(time.Duration(a.c["wal_append_ns.sum"])), float64(a.c["wal_append_ns.count"])), "ms/append")
	rep.set("wal.bytes_per_poll", ratio(float64(a.c["wal_bytes_written_total"]), n), "B/poll")
	rep.set("wal.fsyncs_per_s", ratio(float64(a.c["wal_fsync_total"]), a.busy.Seconds()), "1/s")
	rep.set("repl.apply_ms", ratio(ms(a.followApply), float64(a.followApplies)), "ms/record")
	rep.set("repl.ack_wait_ms", perOp(a.stage["log/replicate"]), "ms")
	rep.set("repl.records_per_poll", ratio(float64(a.c["repl_records_sent_total"]), n), "rec/poll")

	rep.set("wire.notify_ms", perOp(a.stage["notify/wire"]), "ms")
	rep.set("wire.bytes_per_poll", ratio(float64(a.c["qss_wire_sent_bytes_total"]), n), "B/poll")
	rep.set("wire.rtt_ms", ratio(ms(a.ping), float64(a.pings)), "ms")
}

// Command perfbench is the repository's end-to-end benchmark. It drives
// the paper's two paths in one process: the QSS notification loop (a real
// qss.Server on loopback TCP, polled by qss.RobustClients) and ad-hoc
// Chorel queries over a DOEM history (a lorel.Engine set up the way
// cmd/chorel sets it up).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload poll-bigdb --seed 1 --seconds 10 --trace 0
//
// Workloads are poll-bigdb, poll-fanout-repl and adhoc-history (see
// BENCHMARK.json for why each exists). With --trace 0 the run reports the
// end-to-end metrics; with --trace 1 untraced and traced episodes
// alternate, each kind filling half the time, and the run reports the
// per-layer breakdown (see trace.go).
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The lines before it are a
// human-readable report and a run record (host, Go version, seed, sample
// counts).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// processStart anchors the first set-up, which starts at process start.
var processStart = time.Now()

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

func main() {
	var o options
	var secs, trace int
	flag.StringVar(&o.workload, "workload", "", "poll-bigdb | poll-fanout-repl | adhoc-history")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	flag.IntVar(&secs, "seconds", 10, "measured time of the run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	flag.Parse()
	if secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o.seconds = time.Duration(secs) * time.Second
	o.trace = trace == 1

	var rep *report
	var err error
	switch o.workload {
	case "poll-bigdb":
		rep, err = runPoll(bigDB, o)
	case "poll-fanout-repl":
		rep, err = runPoll(fanoutRepl, o)
	case "adhoc-history":
		rep, err = runAdhoc(o)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report is what a workload run hands back for printing.
type report struct {
	attempted, failed int64
	// notes explains failed operations and check mismatches.
	notes   []string
	metrics map[string]metric
	// samples counts the operations behind each latency percentile.
	samples int
	// setups and episodes count repetitions inside the run.
	setups, episodes int
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) print(o options) error {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-30s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	for _, n := range r.notes {
		fmt.Println("check:", n)
	}
	rec, err := json.Marshal(map[string]any{"record": map[string]any{
		"workload":        o.workload,
		"seed":            o.seed,
		"seconds":         o.seconds.Seconds(),
		"trace":           o.trace,
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"cpu":             cpuModel(),
		"go":              runtime.Version(),
		"clients":         clients(),
		"latency_samples": r.samples,
		"setups":          r.setups,
		"episodes":        r.episodes,
	}})
	if err != nil {
		return err
	}
	fmt.Println(string(rec))
	out, err := json.Marshal(result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// clients is the closed-loop client count: one per core, at most two.
func clients() int {
	return min(runtime.NumCPU(), 2)
}

// cpuModel reads the CPU model name, or "unknown" off Linux.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Command perfbench is the repository's benchmark. It drives the
// explainer only through its public packages (netgen, synth, verify,
// core, engine, the parsers and the netexplaind handler) and prints one
// JSON result line.
//
//	go build -o perfbench . && ./perfbench --workload report-lift --seed 1 --seconds 18 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured by spans and
// counter deltas around the calls into each layer, and the spans are
// written to .bench_build/trace/ under the working directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/logic"
)

// setupReps is how many times each run sets up; setup_s is the median.
const setupReps = 3

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func (c runConfig) window() time.Duration { return time.Duration(c.seconds) * time.Second }

// endToEnd lists the end-to-end metrics and their units, in
// BENCHMARK.json order. Every workload reports every one of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"report_s", "s"},
	{"peak_heap_mb", "MiB"},
	{"diff_ms_p50", "ms"},
	{"diff_ms_p90", "ms"},
	{"explain_ms_p50", "ms"},
	{"cache_hit_ms_p50", "ms"},
	{"requests_per_s", "1/s"},
}

// perLayer lists the per-layer metrics and their units, in
// BENCHMARK.json order. A metric a workload cannot exercise (the
// server's on in-process workloads) reads 0.
var perLayer = []struct{ name, unit string }{
	{"synth.synthesize_ms", "ms"},
	{"verify.satisfies_ms", "ms"},
	{"synth.encode_ms", "ms"},
	{"synth.scoped_copy_ratio", "ratio"},
	{"rewrite.simplify_ms", "ms"},
	{"rewrite.norm_cache_hit_ratio", "ratio"},
	{"rewrite.norm_entries", "count"},
	{"smt.lift_queries", "count"},
	{"smt.lift_ms", "ms"},
	{"smt.lift_query_ms_p50", "ms"},
	{"smt.lift_query_ms_p95", "ms"},
	{"sat.solves", "count"},
	{"sat.conflicts", "count"},
	{"sat.propagations", "count"},
	{"engine.encode_cache_hit_ratio", "ratio"},
	{"engine.warm_solver_hit_ratio", "ratio"},
	{"engine.report_cache_hit_ratio", "ratio"},
	{"core.explain_ms_p50", "ms"},
	{"core.explain_ms_p90", "ms"},
	{"core.reexplain_ms_p50", "ms"},
	{"core.diff_fast_path_ratio", "ratio"},
	{"core.diff_splice_ratio", "ratio"},
	{"core.diff_dirty_routers", "count"},
	{"topology.parse_ms", "ms"},
	{"config.parse_ms", "ms"},
	{"spec.parse_ms", "ms"},
	{"server.request_self_ms", "ms"},
	{"server.response_cache_hit_ratio", "ratio"},
	{"server.pool_hit_ratio", "ratio"},
	{"server.errors", "count"},
	{"server.rejected", "count"},
	{"server.pool_leased", "count"},
	{"logic.interned_terms_per_op", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// outcome is a workload run's result before it is printed.
type outcome struct {
	attempted, failed int
	metrics           metricSet
	notes             []string // facts printed as comment lines
	problems          []string // failed run-level checks; any makes correct false
	tracer            *tracer
}

func newOutcome() *outcome { return &outcome{metrics: metricSet{}} }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// internedTerms is the size of the process-wide term interner, which
// never shrinks: every run measures with it warm.
func internedTerms() int { return logic.Default().Size() }

// result is the printed JSON line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func run(ctx context.Context, cfg runConfig) (*outcome, error) {
	switch cfg.workload {
	case "report-lift":
		return runReportWorkload(ctx, reportLift(), cfg)
	case "report-scale":
		return runReportWorkload(ctx, reportScale(), cfg)
	case "whatif-serve":
		return runServeWorkload(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want report-lift, report-scale or whatif-serve)", cfg.workload)
}

// finish turns an outcome into the printed result: it selects the
// metric list the mode reports, checks that every metric is present
// with its declared unit, and folds the run-level checks into correct.
func finish(cfg runConfig, out *outcome) (result, error) {
	want := endToEnd
	if cfg.trace {
		want = perLayer
		out.metrics.set("trace.spans", float64(out.tracer.count()), "count")
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: metricSet{}}
	for _, w := range want {
		m, ok := out.metrics[w.name]
		if !ok && cfg.trace {
			m = metric{Value: 0, Unit: w.unit}
		} else if !ok {
			return res, fmt.Errorf("workload did not measure %s", w.name)
		}
		if m.Unit != w.unit {
			return res, fmt.Errorf("%s measured in %s, declared in %s", w.name, m.Unit, w.unit)
		}
		res.Metrics[w.name] = m
	}
	res.Correct = out.failed == 0 && out.attempted > 0 && len(out.problems) == 0
	return res, nil
}

func writeTrace(cfg runConfig, tr *tracer) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s; self time by span:\n", tr.count(), path)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %12.1f ms\n", n, self[n])
	}
	return nil
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "report-lift, report-scale or whatif-serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed (relabels the routers, picks the edits)")
	flag.IntVar(&cfg.seconds, "seconds", 18, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}

	ctx := context.Background()
	out, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	res, err := finish(cfg, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if cfg.trace {
		if err := writeTrace(cfg, out.tracer); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%t nproc=%d gomaxprocs=%d go=%s interner=warm(%d terms)\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), internedTerms())
	for _, n := range out.notes {
		fmt.Println("# " + n)
	}
	for _, p := range out.problems {
		fmt.Println("# check failed: " + p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(strings.TrimSpace(string(line)))
}

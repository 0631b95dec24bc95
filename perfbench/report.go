package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/spec"
	"repro/internal/synth"
	"repro/internal/topology"
)

// reportWorkload is a closed-loop, one-caller, in-process workload on
// one whole network. One op is a user session on a cold explainer:
//
//	report   fresh core.NewExplainer + WriteReport      -> report_s
//	diff     ReExplainContext base -> MED edit, then     -> diff_ms_*
//	         edit -> base and base -> edit
//	repeat   ReExplainContext with an empty delta        -> cache_hit_ms_p50
//	         (answered from the retained report), after
//	         the report and the first two diffs
//	explain  ReportContext on the just-diffed deployment -> explain_ms_p50
//	         after the last diff (after every diff without
//	         lift, see reportWorkload.explains)
//
// The first diff is the only one that recomputes the edited router's
// lift; the two toggles after it splice every router from the report
// cache. Toggling is what an operator comparing a change does, and it
// gives the diff medians enough samples per run: with one diff per
// session, GC timing alone moved the per-run median by a third.
type reportWorkload struct {
	name string
	base *topology.Network
	lift bool
	// explains is how many of an op's diffs, counted from the last, an
	// explain of the just-diffed deployment follows (at most
	// diffsPerReportOp). Without lift an explain after a toggle redoes
	// the same cached sweep as after the first diff, and three, spread
	// over the op like the repeats, give the cheap explain enough
	// samples. With lift an explain warms solvers that later explains
	// reuse, so the op explains once, after its last diff.
	explains int
}

func reportLift() reportWorkload {
	return reportWorkload{name: "report-lift", base: topology.Random(100, 2.5, 1), lift: true, explains: 1}
}

func reportScale() reportWorkload {
	return reportWorkload{name: "report-scale", base: topology.Grid(20, 20), lift: false, explains: 3}
}

// requests is the number of checked requests in one op.
func (wk reportWorkload) requests() int {
	return 1 + repeatsPerReportOp + diffsPerReportOp + wk.explains
}

// scaleSynthOptions are the scale table's synthesis options.
func scaleSynthOptions() synth.Options {
	o := synth.DefaultOptions()
	o.MaxPathLen = 7
	o.MaxCandidatesPerNode = 8
	return o
}

// hashWriter counts and hashes a streamed report. corrupt, when set,
// flips one byte of the stream before hashing (the self-test's
// stand-in for a wrong report).
type hashWriter struct {
	h       hash.Hash
	n       int64
	corrupt bool
}

func newHashWriter(corrupt bool) *hashWriter { return &hashWriter{h: sha256.New(), corrupt: corrupt} }

func (w *hashWriter) Write(p []byte) (int, error) {
	if w.corrupt && w.n == 0 && len(p) > 0 {
		q := append([]byte(nil), p...)
		q[0] ^= 0x20
		w.h.Write(q)
	} else {
		w.h.Write(p)
	}
	w.n += int64(len(p))
	return len(p), nil
}

func (w *hashWriter) sum() digest {
	var d digest
	copy(d[:], w.h.Sum(nil))
	return d
}

func digestOf(s string) digest { return sha256.Sum256([]byte(s)) }

// referenceReport renders a deployment's report through a path
// independent of the one measured: a cold explainer with scoped
// encoding off and the sequential lift path.
func referenceReport(ctx context.Context, p *problem, dep config.Deployment, lift bool) (digest, error) {
	ex, err := core.NewExplainer(p.wl.Net, p.wl.Requirements(), dep, p.options(lift))
	if err != nil {
		return digest{}, err
	}
	ex.Session.DisableScopedEncoding()
	ex.Opts.LiftWorkers = 1
	w := newHashWriter(false)
	if _, err := ex.WriteReport(ctx, w); err != nil {
		return digest{}, err
	}
	return w.sum(), nil
}

// reportRefs are the expected outputs of one report-workload run.
type reportRefs struct {
	base, edited digest
	baseText     string // config.PrintDeployment of the referenced deployment
	edit         edit
}

// chooseReportEdit builds the run's references and picks its what-if
// edit: a MED retune at a fixed structural site, the first med-change
// netgen.Perturb draws on the un-relabeled problem whose reference
// report succeeds, located in p under p's router names. The site does
// not move with the seed, so neither does the diff's work; a single
// edit kind keeps the diff latency unimodal. MED is outside the modeled
// selection semantics, but the edit still takes the delta sweep.
func chooseReportEdit(ctx context.Context, wk reportWorkload, p *problem) (reportRefs, error) {
	base, err := referenceReport(ctx, p, p.dep, wk.lift)
	if err != nil {
		return reportRefs{}, fmt.Errorf("reference report: %w", err)
	}
	bp, _, err := buildProblem(ctx, wk.base, identity(wk.base), wk.name, scaleSynthOptions())
	if err != nil {
		return reportRefs{}, err
	}
	for _, be := range editCandidates(bp.dep, 1, 64)["med-change"] {
		e, ok := relabeledEdit(p, be)
		if !ok {
			continue
		}
		ed, err := referenceReport(ctx, p, e.dep, wk.lift)
		if err != nil {
			continue
		}
		return reportRefs{base: base, edited: ed, baseText: config.PrintDeployment(p.dep), edit: e}, nil
	}
	return reportRefs{}, fmt.Errorf("no med-change edit with a reference report")
}

// reportOp is one op's measurements.
type reportOp struct {
	report                time.Duration
	repeat, diff, explain []time.Duration
	failed                int
	cold                  engine.Stats   // explainer stats right after the cold report
	liftMS                float64        // summed lift-query latencies of the cold report
	diffStats             core.DiffStats // of the first diff, base -> edit
}

const (
	// repeatsPerReportOp is how many repeat requests an op makes (at
	// most diffsPerReportOp). They cost about a millisecond, and several
	// per op give cache_hit_ms_p50 enough samples.
	repeatsPerReportOp = 3
	// diffsPerReportOp is the number of diffs in an op: base -> edit and
	// two toggles, so the p50 falls on a toggle and the p90 on a first
	// diff.
	diffsPerReportOp = 3
)

// runReportOp performs one op against p and checks every output.
func runReportOp(ctx context.Context, wk reportWorkload, p *problem, refs reportRefs, tr *tracer, corrupt bool) reportOp {
	var op reportOp
	root := tr.begin("op.session", 0, 0)
	defer tr.finish(root)

	ex, err := core.NewExplainer(p.wl.Net, p.wl.Requirements(), p.dep, p.options(wk.lift))
	if err != nil {
		op.failed = wk.requests()
		return op
	}
	w := newHashWriter(corrupt)
	sp := tr.begin("core.write_report", root, 0)
	t := time.Now()
	_, err = ex.WriteReport(ctx, w)
	op.report = time.Since(t)
	tr.finish(sp)
	if err != nil || w.sum() != refs.base {
		op.failed++
	}
	op.cold = ex.Stats()
	for _, ns := range ex.Session.LiftSamples() {
		op.liftMS += float64(ns) / 1e6
	}

	// A repeat follows the cold report and each diff but the last, so
	// the three samples fall at different points of the GC cycle.
	repeat := func(want digest) {
		sp := tr.begin("core.reexplain_unchanged", root, 0)
		t := time.Now()
		dr, err := ex.ReExplainContext(ctx, core.Delta{})
		op.repeat = append(op.repeat, time.Since(t))
		tr.finish(sp)
		if err != nil || digestOf(dr.Report) != want {
			op.failed++
		}
	}
	want := refs.base
	repeat(want)
	for i := 0; i < diffsPerReportOp; i++ {
		target := refs.edit.dep
		want = refs.edited
		if i%2 == 1 {
			target, want = p.dep, refs.base
		}
		sp = tr.begin("core.reexplain", root, 0)
		t = time.Now()
		dr, err := ex.ReExplainContext(ctx, core.Delta{Deployment: target})
		op.diff = append(op.diff, time.Since(t))
		tr.finish(sp)
		if err != nil || digestOf(dr.Report) != want {
			op.failed++
		} else if i == 0 {
			op.diffStats = dr.Stats
		}
		if i >= diffsPerReportOp-wk.explains {
			sp = tr.begin("core.report_context", root, 0)
			t = time.Now()
			rep, err := ex.ReportContext(ctx)
			op.explain = append(op.explain, time.Since(t))
			tr.finish(sp)
			if err != nil || digestOf(rep) != want {
				op.failed++
			}
		}
		if i < repeatsPerReportOp-1 {
			repeat(want)
		}
	}
	return op
}

// reportSetup builds the problem, the references (first repetition
// only; they are the benchmark's oracle, not the program's set-up) and
// runs one discarded, checked warm-up report. It returns the set-up
// time, which excludes the references.
func reportSetup(ctx context.Context, wk reportWorkload, seed int64, refs *reportRefs) (*problem, setupTimes, time.Duration, error) {
	t := time.Now()
	net, names, err := relabel(wk.base, seed)
	if err != nil {
		return nil, setupTimes{}, 0, err
	}
	p, st, err := buildProblem(ctx, net, names, wk.name, scaleSynthOptions())
	if err != nil {
		return nil, st, 0, err
	}
	setup := time.Since(t)
	if refs.edit.dep == nil {
		if *refs, err = chooseReportEdit(ctx, wk, p); err != nil {
			return nil, st, 0, err
		}
	} else if config.PrintDeployment(p.dep) != refs.baseText {
		return nil, st, 0, fmt.Errorf("synthesis is not deterministic across set-ups")
	}
	t = time.Now()
	ex, err := core.NewExplainer(p.wl.Net, p.wl.Requirements(), p.dep, p.options(wk.lift))
	if err != nil {
		return nil, st, 0, err
	}
	w := newHashWriter(false)
	if _, err := ex.WriteReport(ctx, w); err != nil || w.sum() != refs.base {
		return nil, st, 0, fmt.Errorf("warm-up report failed (err %v)", err)
	}
	setup += time.Since(t)
	return p, st, setup, nil
}

// runReportWorkload runs one report-* workload and returns its result.
func runReportWorkload(ctx context.Context, wk reportWorkload, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var refs reportRefs
	var p *problem
	var setups, synthT, verifyT []float64
	for i := 0; i < setupReps; i++ {
		var st setupTimes
		var d time.Duration
		var err error
		p, st, d, err = reportSetup(ctx, wk, cfg.seed, &refs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		synthT = append(synthT, ms(st.synth))
		verifyT = append(verifyT, ms(st.verify))
	}
	out.note("routers=%d edit=%q verified=%t", len(p.dep), refs.edit, p.verified)

	measure := func(d time.Duration, tr *tracer) ([]reportOp, *window) {
		var ops []reportOp
		w := startWindow()
		for len(ops) == 0 || time.Since(w.start) < d {
			ops = append(ops, runReportOp(ctx, wk, p, refs, tr, false))
		}
		w.end()
		return ops, w
	}

	var ops []reportOp
	if !cfg.trace {
		var w *window
		ops, w = measure(cfg.window(), nil)
		var rep, hit, diff, expl []float64
		for _, op := range ops {
			rep = append(rep, op.report.Seconds())
			for _, r := range op.repeat {
				hit = append(hit, ms(r))
			}
			for _, d := range op.diff {
				diff = append(diff, ms(d))
			}
			for _, e := range op.explain {
				expl = append(expl, ms(e))
			}
		}
		m := out.metrics
		m.set("setup_s", median(setups), "s")
		m.set("report_s", median(rep), "s")
		m.set("peak_heap_mb", w.peakMB, "MiB")
		m.set("diff_ms_p50", median(diff), "ms")
		m.set("diff_ms_p90", percentile(diff, 90), "ms")
		m.set("explain_ms_p50", median(expl), "ms")
		m.set("cache_hit_ms_p50", median(hit), "ms")
		m.set("requests_per_s", float64(len(ops)*wk.requests())/w.elapsed.Seconds(), "1/s")
		out.note("ops=%d window_s=%.2f", len(ops), w.elapsed.Seconds())
	} else {
		plain, _ := measure(cfg.window()/2, nil)
		tr := newTracer()
		traced, w := measure(cfg.window()/2, tr)
		ops = append(plain, traced...)
		m := out.metrics
		reportLayerMetrics(m, traced)
		w.layerMetrics(m, len(traced))
		m.set("trace.overhead_pct", 100*(ratio(medianOpMS(traced), medianOpMS(plain))-1), "%")
		m.set("synth.synthesize_ms", median(synthT), "ms")
		m.set("verify.satisfies_ms", median(verifyT), "ms")
		per, simp, err := probeExplainer(ctx, p, wk.lift, tr)
		if err != nil {
			return nil, err
		}
		m.set("core.explain_ms_p50", median(per), "ms")
		m.set("core.explain_ms_p90", percentile(per, 90), "ms")
		m.set("rewrite.simplify_ms", simp, "ms")
		probeParsers(p, tr, m)
		out.tracer = tr
	}

	for _, op := range ops {
		out.attempted += wk.requests()
		out.failed += op.failed
	}
	if !wk.lift {
		// The bypass arm: lift, smt and sat must do no work at all.
		for _, op := range ops {
			if op.cold.LiftQueries != 0 || op.cold.Solves != 0 || op.cold.Conflicts != 0 {
				out.fail("lift off but the cold report ran %d lift queries, %d solves, %d conflicts",
					op.cold.LiftQueries, op.cold.Solves, op.cold.Conflicts)
				break
			}
		}
	}
	return out, nil
}

// reportLayerMetrics fills the per-layer metrics a report op yields:
// the engine, smt and sat figures of its cold report and the delta
// figures of its what-if diff.
func reportLayerMetrics(m metricSet, ops []reportOp) {
	var cold []engineDelta
	var repHit, reexp, fast, splice, dirty []float64
	for _, op := range ops {
		cold = append(cold, engineDelta{st: op.cold, liftMS: op.liftMS})
		d := op.diffStats
		repHit = append(repHit, ratio(float64(d.CacheHits), float64(d.CacheHits+d.CacheMisses)))
		for _, d := range op.diff {
			reexp = append(reexp, ms(d))
		}
		fast = append(fast, boolF(d.FastPath))
		splice = append(splice, ratio(float64(d.Spliced), float64(d.Spliced+d.Recomputed)))
		dirty = append(dirty, float64(len(d.PredictedDirty)))
	}
	engineLayerMetrics(m, cold)
	m.set("engine.report_cache_hit_ratio", median(repHit), "ratio")
	m.set("core.reexplain_ms_p50", median(reexp), "ms")
	m.set("core.diff_fast_path_ratio", mean(fast), "ratio")
	m.set("core.diff_splice_ratio", median(splice), "ratio")
	m.set("core.diff_dirty_routers", median(dirty), "count")
}

// medianOpMS is the median wall time of an op's checked requests.
func medianOpMS(ops []reportOp) float64 {
	var xs []float64
	for _, op := range ops {
		d := op.report
		for _, ds := range [][]time.Duration{op.repeat, op.diff, op.explain} {
			for _, x := range ds {
				d += x
			}
		}
		xs = append(xs, ms(d))
	}
	return median(xs)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// probeExplainer times the stages a whole report hides behind its
// worker pool: every router's ExplainAllContext on a fresh explainer,
// one after another, then engine.Session.Simplify of each router's
// seed on a fresh session (normalization alone, warm only across
// sibling routers). It returns the per-router explain times and the
// total simplify time, in milliseconds.
func probeExplainer(ctx context.Context, p *problem, lift bool, tr *tracer) ([]float64, float64, error) {
	ex, err := core.NewExplainer(p.wl.Net, p.wl.Requirements(), p.dep, p.options(lift))
	if err != nil {
		return nil, 0, err
	}
	routers := make([]string, 0, len(p.dep))
	for r := range p.dep {
		routers = append(routers, r)
	}
	sort.Strings(routers)
	var per []float64
	exps := make([]*core.Explanation, 0, len(routers))
	root := tr.begin("probe.explain_sequential", 0, 0)
	for _, r := range routers {
		sp := tr.begin("core.explain_all", root, 0)
		exp, err := ex.ExplainAllContext(ctx, r)
		per = append(per, ms(tr.finish(sp)))
		if err != nil {
			tr.finish(root)
			return nil, 0, fmt.Errorf("explain %s: %w", r, err)
		}
		exps = append(exps, exp)
	}
	tr.finish(root)

	sess := engine.NewSession(p.wl.Net, p.wl.Requirements(), p.dep, p.synth)
	root = tr.begin("probe.simplify", 0, 0)
	for _, exp := range exps {
		sp := tr.begin("rewrite.simplify", root, 0)
		sess.Simplify(exp.Seed)
		tr.finish(sp)
	}
	return per, ms(tr.finish(root)), nil
}

// probeParsers times the three parsers on the problem's own texts
// (printed, then parsed back), the median of three rounds.
func probeParsers(p *problem, tr *tracer, m metricSet) {
	topo := topology.Print(p.wl.Net)
	cfgs := config.PrintDeployment(p.dep)
	sp := spec.Print(p.wl.Spec)
	var tt, ct, st []float64
	for i := 0; i < 3; i++ {
		a, b, c := timeParsers(topo, cfgs, sp, tr, 0, 0)
		tt, ct, st = append(tt, a), append(ct, b), append(st, c)
	}
	m.set("topology.parse_ms", median(tt), "ms")
	m.set("config.parse_ms", median(ct), "ms")
	m.set("spec.parse_ms", median(st), "ms")
}

// timeParsers parses one request's texts under spans and returns each
// parser's time in milliseconds. Parse errors cannot occur on printed
// texts; they would surface as the server's own 400s.
func timeParsers(topo, cfgs, sp string, tr *tracer, parent, req int) (float64, float64, float64) {
	s := tr.begin("topology.parse", parent, req)
	t := time.Now()
	topology.Parse(topo)
	a := ms(time.Since(t))
	tr.finish(s)
	s = tr.begin("config.parse", parent, req)
	t = time.Now()
	config.ParseDeployment(cfgs)
	b := ms(time.Since(t))
	tr.finish(s)
	s = tr.begin("spec.parse", parent, req)
	t = time.Now()
	spec.Parse(sp)
	c := ms(time.Since(t))
	tr.finish(s)
	return a, b, c
}

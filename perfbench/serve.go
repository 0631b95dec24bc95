package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/synth"
	"repro/internal/topology"
)

// The whatif-serve workload: netexplaind's handler on a loopback TCP
// listener and two clients, one connection each. Client k
// owns one populated 16-router problem and repeats the operator's
// edit-look-revert cycle, a fresh edit per cycle:
//
//	/diff    base -> edit      (ReExplain, a response-cache miss)
//	/explain edit              (warm pooled session, a cache miss)
//	/diff    edit -> base      (ReExplain back, a cache miss)
//	/explain base, x3          (response-cache hits; three give the
//	                           cheap hit latency enough samples)
//
// The clients run in lock-step: each step is issued by every client at
// once and the next starts when all have answered. Every request thus
// meets the same concurrent work on every run; free-running clients on
// two CPUs made the latency of a request hinge on which of the other
// client's requests it happened to overlap.
const (
	// serveEdits is how many distinct edits each client cycles
	// through. Clients that run out start over, and the repeats are
	// response-cache hits (reported as a note): the pool is sized to
	// outlast a window at the current speed with room to spare.
	serveEdits = 16
	// statCycles caps the cycles the latency percentiles are taken
	// over: each edit costs differently, so a run that fits one more
	// cycle into its window would otherwise also shift the mix. A window
	// at the current speed holds 11 to 13 cycles; requests_per_s counts
	// every request.
	statCycles = 10
)

// serveBases are the clients' base topologies, relabeled per seed:
// two random 16-router networks whose cold reports cost about the
// same, so neither client idles long at the lock-step barrier.
func serveBases() []*topology.Network {
	return []*topology.Network{topology.Random(16, 2.5, 1), topology.Random(16, 2.5, 3)}
}

// editKinds is the order a client's edits rotate through the edit
// families, so the mix of diff costs is the same for every seed.
var editKinds = []string{"action-flip", "med-change", "pref-change", "nexthop-change"}

// wireRequest mirrors the server's request body.
type wireRequest struct {
	Topology      string `json:"topology"`
	Configs       string `json:"configs"`
	Spec          string `json:"spec"`
	EditedConfigs string `json:"edited_configs,omitempty"`
}

// cycleStep is one request of the cycle.
type cycleStep struct {
	path    string
	body    []byte
	want    digest
	configs []string // the request's configuration texts, for the parse spans
}

// serveClient is one client's problem, references and request bodies.
type serveClient struct {
	id    int
	p     *problem
	topo  string
	spc   string
	base  string // printed base deployment
	ref   digest // reference report of the base deployment
	edits []servedEdit
	next  int // index of the next cycle's edit
	wraps int
}

type servedEdit struct {
	edit
	cycle [cycleLen]cycleStep
}

// cycleLen is the number of requests in one edit-look-revert cycle.
const cycleLen = 6

// coldReport renders dep's report with a fresh explainer under
// core.DefaultOptions(), the options the server uses: the reference
// the served reports must match.
func coldReport(ctx context.Context, p *problem, dep config.Deployment) (digest, error) {
	ex, err := core.NewExplainer(p.wl.Net, p.wl.Requirements(), dep, core.DefaultOptions())
	if err != nil {
		return digest{}, err
	}
	rep, err := ex.ReportContext(ctx)
	if err != nil {
		return digest{}, err
	}
	return digestOf(rep), nil
}

func mustBody(r wireRequest) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // only strings: cannot fail
	}
	return b
}

// newServeClient renders client k's problem for the wire and builds
// its references: the base report and serveEdits edits whose cold
// reference report succeeds (edits that fail to explain are dropped).
// The edit sites are fixed structurally: they are drawn by
// netgen.Perturb on the un-relabeled base problem, rotating through the
// edit families, and located in p under p's router names. Every seed
// thus asks the same what-if questions with different names.
func newServeClient(ctx context.Context, k int, base *topology.Network, p *problem) (*serveClient, error) {
	c := wireClient(k, p)
	var err error
	if c.ref, err = coldReport(ctx, p, p.dep); err != nil {
		return nil, fmt.Errorf("client %d reference report: %w", k, err)
	}
	bp, _, err := buildProblem(ctx, base, identity(base), p.wl.Name, synth.DefaultOptions())
	if err != nil {
		return nil, err
	}
	cands := editCandidates(bp.dep, 1, 1024)
	var kinds []string
	for _, kind := range editKinds {
		if len(cands[kind]) > 0 {
			kinds = append(kinds, kind)
		}
	}
	// Slot i takes the next usable edit of kind i mod len(kinds), so the
	// kind mix is fixed even where some edits fail to explain.
	cursor := make(map[string]int)
	used := map[string]bool{c.base: true}
	dropped := 0
	for slot := 0; len(c.edits) < serveEdits; slot++ {
		if len(kinds) == 0 {
			return nil, fmt.Errorf("client %d: no edit sites", k)
		}
		kind := kinds[slot%len(kinds)]
		for {
			if cursor[kind] >= len(cands[kind]) {
				return nil, fmt.Errorf("client %d: ran out of usable %s edits (%d dropped)", k, kind, dropped)
			}
			be := cands[kind][cursor[kind]]
			cursor[kind]++
			e, ok := relabeledEdit(p, be)
			if !ok || used[e.text] {
				continue
			}
			used[e.text] = true
			ref, err := coldReport(ctx, p, e.dep)
			if err != nil {
				dropped++
				continue
			}
			c.edits = append(c.edits, c.served(e, ref))
			break
		}
	}
	return c, nil
}

// wireClient renders client k's problem in the wire formats.
func wireClient(k int, p *problem) *serveClient {
	return &serveClient{id: k, p: p, topo: topology.Print(p.wl.Net), spc: spec.Print(p.wl.Spec), base: config.PrintDeployment(p.dep)}
}

// served builds the request bodies of an edit's cycle.
func (c *serveClient) served(e edit, ref digest) servedEdit {
	return servedEdit{edit: e, cycle: [cycleLen]cycleStep{
		{"/diff", mustBody(wireRequest{Topology: c.topo, Configs: c.base, Spec: c.spc, EditedConfigs: e.text}), ref, []string{c.base, e.text}},
		{"/explain", mustBody(wireRequest{Topology: c.topo, Configs: e.text, Spec: c.spc}), ref, []string{e.text}},
		{"/diff", mustBody(wireRequest{Topology: c.topo, Configs: e.text, Spec: c.spc, EditedConfigs: c.base}), c.ref, []string{e.text, c.base}},
		c.baseExplain(), c.baseExplain(), c.baseExplain(),
	}}
}

// baseExplain is the /explain request for the base deployment.
func (c *serveClient) baseExplain() cycleStep {
	return cycleStep{"/explain", mustBody(wireRequest{Topology: c.topo, Configs: c.base, Spec: c.spc}), c.ref, []string{c.base}}
}

// liveServer is a netexplaind handler served on loopback.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(server.Options{})
	s := &liveServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to exit.
func (s *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// reqRecord is one issued request.
type reqRecord struct {
	client, edit, step int
	cycle              int
	lat                time.Duration
	hit, ok            bool
	parse              [3]float64 // topology, config, spec parse ms (traced half only)
}

// httpClient returns a client holding at most one connection.
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// do issues one request and checks the response's report against want.
func do(ctx context.Context, hc *http.Client, url string, st cycleStep) (time.Duration, bool, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+st.path, bytes.NewReader(st.body))
	if err != nil {
		return 0, false, false
	}
	req.Header.Set("Content-Type", "application/json")
	t := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return time.Since(t), false, false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t)
	hit := resp.Header.Get("X-Cache") == "hit"
	if err != nil || resp.StatusCode != http.StatusOK {
		return lat, hit, false
	}
	var r struct {
		Report string `json:"report"`
	}
	if json.Unmarshal(body, &r) != nil {
		return lat, hit, false
	}
	return lat, hit, digestOf(r.Report) == st.want
}

// corruptStep returns st with its expected digest flipped, the
// self-test's stand-in for a wrong response.
func corruptStep(st cycleStep) cycleStep {
	st.want[0] ^= 1
	return st
}

// issue sends one request of client c, under spans when traced: the
// client-side parse of the request's texts, then the HTTP round trip.
// Only the round trip is timed as the request's latency.
func issue(ctx context.Context, hc *http.Client, url string, c *serveClient, st cycleStep, rec reqRecord, id int, tr *tracer, corrupt bool) reqRecord {
	if corrupt {
		st = corruptStep(st)
	}
	root := tr.begin("client.request", 0, id)
	defer tr.finish(root)
	if tr != nil {
		a, b, s := timeParsers(c.topo, st.configs[0], c.spc, tr, root, id)
		for _, t := range st.configs[1:] {
			sp := tr.begin("config.parse", root, id)
			t0 := time.Now()
			config.ParseDeployment(t)
			b += ms(time.Since(t0))
			tr.finish(sp)
		}
		rec.parse = [3]float64{a, b, s}
	}
	sp := tr.begin("http"+st.path, root, id)
	rec.lat, rec.hit, rec.ok = do(ctx, hc, url, st)
	tr.finish(sp)
	return rec
}

// lockStep issues one request per client at once and waits for all.
func lockStep(ctx context.Context, hcs []*http.Client, url string, clients []*serveClient, step func(c *serveClient) (cycleStep, reqRecord), nextID *int, tr *tracer, corrupt bool) []reqRecord {
	batch := make([]reqRecord, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		st, rec := step(c)
		*nextID++
		wg.Add(1)
		go func(i int, c *serveClient, id int) {
			defer wg.Done()
			batch[i] = issue(ctx, hcs[i], url, c, st, rec, id, tr, corrupt)
		}(i, c, *nextID)
	}
	wg.Wait()
	return batch
}

// drive runs whole cycles in lock-step, each client over its own
// connection, until d has elapsed or maxCycles cycles are done (0 = no
// cycle limit), and returns every request. A
// cycle in progress when d elapses is finished, so every window holds
// the cycle's requests in the same proportions.
func drive(ctx context.Context, url string, clients []*serveClient, d time.Duration, maxCycles int, tr *tracer, corrupt bool) []reqRecord {
	hcs := make([]*http.Client, len(clients))
	for i := range hcs {
		hcs[i] = httpClient()
		defer hcs[i].CloseIdleConnections()
	}
	var recs []reqRecord
	id := 0
	start := time.Now()
	for cycle := 0; (maxCycles == 0 || cycle < maxCycles) && (cycle == 0 || time.Since(start) < d); cycle++ {
		for step := 0; step < cycleLen; step++ {
			recs = append(recs, lockStep(ctx, hcs, url, clients, func(c *serveClient) (cycleStep, reqRecord) {
				if step == 0 {
					if c.next == len(c.edits) {
						c.next = 0
						c.wraps++
					}
					c.next++
				}
				idx := c.next - 1
				return c.edits[idx].cycle[step], reqRecord{client: c.id, edit: idx, step: step, cycle: cycle}
			}, &id, tr, corrupt)...)
		}
	}
	return recs
}

// warmUp has every client explain its base deployment once, at once:
// the server builds each client's pooled session and caches the base
// report that every later cycle's last request hits.
func warmUp(ctx context.Context, url string, clients []*serveClient) []reqRecord {
	hcs := make([]*http.Client, len(clients))
	for i := range hcs {
		hcs[i] = httpClient()
		defer hcs[i].CloseIdleConnections()
	}
	id := 0
	return lockStep(ctx, hcs, url, clients, func(c *serveClient) (cycleStep, reqRecord) {
		return c.baseExplain(), reqRecord{client: c.id, step: cycleLen - 1}
	}, &id, nil, false)
}

// serveSetup builds both problems (and, on the first repetition, the
// clients' references, which are not timed), starts the server and
// runs the discarded warm-up op, one base /explain per client. It returns the clients,
// the running server and the set-up time.
func serveSetup(ctx context.Context, cfg runConfig, clients []*serveClient) ([]*serveClient, *liveServer, setupTimes, time.Duration, error) {
	var total setupTimes
	var setup time.Duration
	bases := serveBases()
	fresh := clients == nil
	for k, base := range bases {
		t := time.Now()
		net, names, err := relabel(base, cfg.seed+int64(k))
		if err != nil {
			return nil, nil, total, 0, err
		}
		p, st, err := buildProblem(ctx, net, names, fmt.Sprintf("whatif_%d", k), synth.DefaultOptions())
		setup += time.Since(t)
		total.synth += st.synth
		total.verify += st.verify
		if err != nil {
			return nil, nil, total, 0, err
		}
		if fresh {
			c, err := newServeClient(ctx, k, base, p)
			if err != nil {
				return nil, nil, total, 0, err
			}
			clients = append(clients, c)
		} else if config.PrintDeployment(p.dep) != clients[k].base {
			return nil, nil, total, 0, fmt.Errorf("synthesis is not deterministic across set-ups")
		}
	}
	t := time.Now()
	ls, err := startServer()
	if err != nil {
		return nil, nil, total, 0, err
	}
	recs := warmUp(ctx, ls.url, clients)
	setup += time.Since(t)
	for _, r := range recs {
		if !r.ok {
			ls.stop()
			return nil, nil, total, 0, fmt.Errorf("warm-up request %d of client %d failed", r.step, r.client)
		}
	}
	return clients, ls, total, setup, nil
}

// runServeWorkload runs whatif-serve and returns its result.
func runServeWorkload(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var clients []*serveClient
	var ls *liveServer
	var setups, synthT, verifyT []float64
	defer func() {
		if ls != nil {
			ls.stop() // error paths only; the success path stops and checks below
		}
	}()
	for i := 0; i < setupReps; i++ {
		if ls != nil {
			err := ls.stop()
			ls = nil
			if err != nil {
				return nil, err
			}
		}
		var st setupTimes
		var d time.Duration
		var err error
		clients, ls, st, d, err = serveSetup(ctx, cfg, clients)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		synthT = append(synthT, ms(st.synth))
		verifyT = append(verifyT, ms(st.verify))
	}
	for _, c := range clients {
		kinds := map[string]int{}
		for _, e := range c.edits {
			kinds[e.Kind]++
		}
		out.note("client %d: routers=%d verified=%t edits=%v", c.id, len(c.p.dep), c.p.verified, kinds)
	}

	var recs []reqRecord
	if !cfg.trace {
		w := startWindow()
		got := drive(ctx, ls.url, clients, cfg.window(), 0, nil, false)
		w.end()
		recs = got
		var diff, expl, hit, served []float64
		for _, r := range got {
			switch {
			case r.cycle >= statCycles:
			case r.hit:
				hit = append(hit, ms(r.lat))
			case r.step == 0 || r.step == 2:
				diff = append(diff, ms(r.lat))
				served = append(served, r.lat.Seconds())
			default:
				expl = append(expl, ms(r.lat))
				served = append(served, r.lat.Seconds())
			}
		}
		m := out.metrics
		m.set("setup_s", median(setups), "s")
		// The cache-missing responses mix diffs and explains in fixed
		// proportions; their median would sit on the seam between the
		// two, so report_s here is the mean.
		m.set("report_s", mean(served), "s")
		m.set("peak_heap_mb", w.peakMB, "MiB")
		m.set("diff_ms_p50", median(diff), "ms")
		m.set("diff_ms_p90", percentile(diff, 90), "ms")
		m.set("explain_ms_p50", median(expl), "ms")
		m.set("cache_hit_ms_p50", median(hit), "ms")
		m.set("requests_per_s", float64(len(got))/w.elapsed.Seconds(), "1/s")
		out.note("requests=%d (diff %d, explain-miss %d, hit %d) window_s=%.2f", len(got), len(diff), len(expl), len(hit), w.elapsed.Seconds())
		if len(hit) == 0 || len(diff) == 0 || len(expl) == 0 {
			out.fail("a request class went unmeasured")
		}
	} else {
		half := cfg.window() / 2
		wp := startWindow()
		plain := drive(ctx, ls.url, clients, half, 0, nil, false)
		wp.end()
		snap0 := ls.srv.Snapshot()
		tr := newTracer()
		w := startWindow()
		traced := drive(ctx, ls.url, clients, half, 0, tr, false)
		w.end()
		snap1 := ls.srv.Snapshot()
		recs = append(plain, traced...)
		m := out.metrics
		m.set("synth.synthesize_ms", median(synthT), "ms")
		m.set("verify.satisfies_ms", median(verifyT), "ms")
		perReq := func(w *window, n int) float64 { return ratio(w.elapsed.Seconds(), float64(n)) }
		m.set("trace.overhead_pct", 100*(ratio(perReq(w, len(traced)), perReq(wp, len(plain)))-1), "%")
		w.layerMetrics(m, len(traced))
		var tp, cp, sp []float64
		for _, r := range traced {
			tp, cp, sp = append(tp, r.parse[0]), append(cp, r.parse[1]), append(sp, r.parse[2])
		}
		m.set("topology.parse_ms", median(tp), "ms")
		m.set("config.parse_ms", median(cp), "ms")
		m.set("spec.parse_ms", median(sp), "ms")
		s0, s1 := snap0.Server, snap1.Server
		m.set("server.response_cache_hit_ratio", ratio(float64(s1.ResponseCacheHits-s0.ResponseCacheHits),
			float64(s1.ResponseCacheHits-s0.ResponseCacheHits+s1.ResponseCacheMisses-s0.ResponseCacheMisses)), "ratio")
		m.set("server.pool_hit_ratio", ratio(float64(s1.Pool.Hits-s0.Pool.Hits), float64(s1.Pool.Hits-s0.Pool.Hits+s1.Pool.Misses-s0.Pool.Misses)), "ratio")

		var per []float64
		var simp []float64
		for _, c := range clients {
			p, s, err := probeExplainer(ctx, c.p, true, tr)
			if err != nil {
				return nil, err
			}
			per = append(per, p...)
			simp = append(simp, s)
		}
		m.set("core.explain_ms_p50", median(per), "ms")
		m.set("core.explain_ms_p90", percentile(per, 90), "ms")
		m.set("rewrite.simplify_ms", mean(simp), "ms")
		if err := replay(ctx, clients, traced, tr, out); err != nil {
			return nil, err
		}
		out.tracer = tr
	}

	for _, r := range recs {
		out.attempted++
		if !r.ok {
			out.failed++
		}
	}
	for _, c := range clients {
		if c.wraps > 0 {
			out.note("client %d wrapped its %d-edit pool %d times: repeats were response-cache hits", c.id, serveEdits, c.wraps)
		}
	}
	snap := ls.srv.Snapshot()
	err := ls.stop()
	ls = nil
	if err != nil {
		return nil, err
	}
	m := out.metrics
	if cfg.trace {
		m.set("server.errors", float64(snap.Server.Errors), "count")
		m.set("server.rejected", float64(snap.Server.Rejected), "count")
		m.set("server.pool_leased", float64(snap.Server.Pool.Leased), "count")
	}
	if snap.Server.Errors != 0 || snap.Server.Rejected != 0 || snap.Server.Pool.Leased != 0 {
		out.fail("server errors=%d rejected=%d leased=%d, want all 0", snap.Server.Errors, snap.Server.Rejected, snap.Server.Pool.Leased)
	}
	return out, nil
}

// replay re-runs the core work behind the traced half's cache-missing
// requests in-process, one explainer chain per client, the way the
// server's handler calls core: a /diff is ReportContext on the pooled
// explainer then ReExplainContext, an /explain miss is ReportContext.
// It yields the core, engine, smt and sat metrics of whatif-serve and
// server.request_self_ms, each request's latency minus the in-process
// time of the same core calls.
func replay(ctx context.Context, clients []*serveClient, traced []reqRecord, tr *tracer, out *outcome) error {
	type key struct{ client, edit, step int }
	coreMS := make(map[key][]float64)
	var reexp, fast, splice, dirty []float64
	var repHits, repMisses int
	var explainSteps []engineDelta
	for _, c := range clients {
		ex, err := core.NewExplainer(c.p.wl.Net, c.p.wl.Requirements(), c.p.dep, core.DefaultOptions())
		if err != nil {
			return err
		}
		if _, err := ex.ReportContext(ctx); err != nil {
			return err
		}
		root := tr.begin("probe.replay", 0, 0)
		for _, r := range traced {
			if r.client != c.id || r.hit {
				continue
			}
			e := c.edits[r.edit]
			t := time.Now()
			switch r.step {
			case 0, 2:
				target := e.dep
				if r.step == 2 {
					target = c.p.dep
				}
				sp := tr.begin("core.report_context", root, 0)
				_, err := ex.ReportContext(ctx)
				tr.finish(sp)
				if err != nil {
					return err
				}
				sp = tr.begin("core.reexplain", root, 0)
				dr, err := ex.ReExplainContext(ctx, core.Delta{Deployment: target})
				d := tr.finish(sp)
				if err != nil {
					return err
				}
				if digestOf(dr.Report) != e.cycle[r.step].want {
					out.fail("replayed diff of client %d edit %d step %d differs from the reference", c.id, r.edit, r.step)
				}
				reexp = append(reexp, ms(d))
				fast = append(fast, boolF(dr.Stats.FastPath))
				splice = append(splice, ratio(float64(dr.Stats.Spliced), float64(dr.Stats.Spliced+dr.Stats.Recomputed)))
				dirty = append(dirty, float64(len(dr.Stats.PredictedDirty)))
				repHits += dr.Stats.CacheHits
				repMisses += dr.Stats.CacheMisses
			default:
				before := snapshotEngine(ex)
				sp := tr.begin("core.report_context", root, 0)
				_, err := ex.ReportContext(ctx)
				tr.finish(sp)
				if err != nil {
					return err
				}
				explainSteps = append(explainSteps, snapshotEngine(ex).minus(before))
			}
			k := key{r.client, r.edit, r.step}
			coreMS[k] = append(coreMS[k], ms(time.Since(t)))
		}
		tr.finish(root)
	}

	var self []float64
	seen := make(map[key]int)
	for _, r := range traced {
		if r.hit {
			continue
		}
		k := key{r.client, r.edit, r.step}
		if i := seen[k]; i < len(coreMS[k]) {
			self = append(self, ms(r.lat)-coreMS[k][i])
			seen[k] = i + 1
		}
	}
	m := out.metrics
	m.set("server.request_self_ms", median(self), "ms")
	m.set("core.reexplain_ms_p50", median(reexp), "ms")
	m.set("core.diff_fast_path_ratio", mean(fast), "ratio")
	m.set("core.diff_splice_ratio", median(splice), "ratio")
	m.set("core.diff_dirty_routers", median(dirty), "count")
	m.set("engine.report_cache_hit_ratio", ratio(float64(repHits), float64(repHits+repMisses)), "ratio")
	engineLayerMetrics(m, explainSteps)
	return nil
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// engineDelta is the engine work of one query on a live session.
type engineDelta struct {
	st     engine.Stats
	liftMS float64
}

func snapshotEngine(ex *core.Explainer) engineDelta {
	var d engineDelta
	d.st = ex.Stats()
	for _, ns := range ex.Session.LiftSamples() {
		d.liftMS += float64(ns) / 1e6
	}
	return d
}

// minus returns the counters accumulated since before on the same
// session; percentiles and gauges are taken from the later snapshot.
func (a engineDelta) minus(before engineDelta) engineDelta {
	b := before.st
	d := a.st
	d.EncodeTime -= b.EncodeTime
	d.Encodes -= b.Encodes
	d.CacheHits -= b.CacheHits
	d.ScopedGroupsCopied -= b.ScopedGroupsCopied
	d.ScopedGroupsEncoded -= b.ScopedGroupsEncoded
	d.NormCacheHits -= b.NormCacheHits
	d.NormCacheMisses -= b.NormCacheMisses
	d.LiftQueries -= b.LiftQueries
	d.Solves -= b.Solves
	d.Conflicts -= b.Conflicts
	d.Propagations -= b.Propagations
	d.WarmSolverHits -= b.WarmSolverHits
	d.WarmSolverMisses -= b.WarmSolverMisses
	return engineDelta{st: d, liftMS: a.liftMS - before.liftMS}
}

// engineLayerMetrics fills the synth-encode, rewrite, engine, smt and
// sat metrics: medians over the given queries' engine work.
func engineLayerMetrics(m metricSet, steps []engineDelta) {
	var enc, copyRatio, normHit, normEntries, lq, liftMS, lp50, lp95, solves, conflicts, props, encHit, warmHit []float64
	for _, s := range steps {
		c := s.st
		enc = append(enc, ms(c.EncodeTime))
		copyRatio = append(copyRatio, ratio(float64(c.ScopedGroupsCopied), float64(c.ScopedGroupsCopied+c.ScopedGroupsEncoded)))
		normHit = append(normHit, ratio(float64(c.NormCacheHits), float64(c.NormCacheHits+c.NormCacheMisses)))
		normEntries = append(normEntries, float64(c.NormCacheEntries))
		lq = append(lq, float64(c.LiftQueries))
		liftMS = append(liftMS, s.liftMS)
		lp50 = append(lp50, ms(c.LiftP50))
		lp95 = append(lp95, ms(c.LiftP95))
		solves = append(solves, float64(c.Solves))
		conflicts = append(conflicts, float64(c.Conflicts))
		props = append(props, float64(c.Propagations))
		encHit = append(encHit, ratio(float64(c.CacheHits), float64(c.CacheHits+c.Encodes)))
		warmHit = append(warmHit, ratio(float64(c.WarmSolverHits), float64(c.WarmSolverHits+c.WarmSolverMisses)))
	}
	m.set("synth.encode_ms", median(enc), "ms")
	m.set("synth.scoped_copy_ratio", median(copyRatio), "ratio")
	m.set("rewrite.norm_cache_hit_ratio", median(normHit), "ratio")
	m.set("rewrite.norm_entries", median(normEntries), "count")
	m.set("smt.lift_queries", median(lq), "count")
	m.set("smt.lift_ms", median(liftMS), "ms")
	m.set("smt.lift_query_ms_p50", median(lp50), "ms")
	m.set("smt.lift_query_ms_p95", median(lp95), "ms")
	m.set("sat.solves", median(solves), "count")
	m.set("sat.conflicts", median(conflicts), "count")
	m.set("sat.propagations", median(props), "count")
	m.set("engine.encode_cache_hit_ratio", median(encHit), "ratio")
	m.set("engine.warm_solver_hit_ratio", median(warmHit), "ratio")
}

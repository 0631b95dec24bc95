package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/synth"
	"repro/internal/topology"
	"repro/internal/verify"
)

// relabel returns a copy of base whose internal routers carry a seeded
// permutation of the names R0..R(n-1), plus the map from base names to
// new names; externals keep their names. The copy is isomorphic to
// base, so the amount of explanation work stays put across seeds while
// names, report order, hash-consing order and solver variable order
// all change with the seed.
func relabel(base *topology.Network, seed int64) (*topology.Network, map[string]string, error) {
	internals := base.Internals()
	perm := rand.New(rand.NewSource(seed)).Perm(len(internals))
	name := make(map[string]string, len(internals))
	for i, r := range internals {
		name[r.Name] = fmt.Sprintf("R%d", perm[i])
	}
	net := topology.New()
	for _, r := range base.Routers() {
		var err error
		switch {
		case r.Role == topology.Internal:
			err = net.AddRouter(name[r.Name], r.AS)
		case r.Stub:
			name[r.Name] = r.Name
			err = net.AddStub(r.Name, r.AS, r.Prefix)
		default:
			name[r.Name] = r.Name
			err = net.AddExternal(r.Name, r.AS, r.Prefix)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("relabel: %w", err)
		}
	}
	for _, l := range base.Links() {
		if err := net.AddLink(name[l[0]], name[l[1]]); err != nil {
			return nil, nil, fmt.Errorf("relabel: %w", err)
		}
	}
	return net, name, nil
}

// problem is one populated, synthesized no-transit problem.
type problem struct {
	wl       *netgen.Workload
	synth    synth.Options
	dep      config.Deployment
	verified bool
	names    map[string]string // base router name -> name in this problem
}

// setupTimes are the per-stage set-up times of one problem.
type setupTimes struct {
	synth, verify time.Duration
}

// identity is the name map of an un-relabeled network.
func identity(net *topology.Network) map[string]string {
	names := make(map[string]string)
	for _, r := range net.Routers() {
		names[r.Name] = r.Name
	}
	return names
}

// buildProblem populates every internal router of net, synthesizes the
// deployment, and runs the independent BGP check (recorded as a fact:
// bounded-path encodings of large networks are known not to verify).
// names maps the base network's router names to net's.
func buildProblem(ctx context.Context, net *topology.Network, names map[string]string, name string, opts synth.Options) (*problem, setupTimes, error) {
	wl, err := netgen.NoTransit(name, net)
	if err != nil {
		return nil, setupTimes{}, err
	}
	netgen.Populate(wl)
	var st setupTimes
	t := time.Now()
	res, err := synth.SynthesizeContext(ctx, wl.Net, wl.Sketch, wl.Requirements(), opts)
	st.synth = time.Since(t)
	if err != nil {
		return nil, st, fmt.Errorf("synthesize %s: %w", name, err)
	}
	t = time.Now()
	ok, err := verify.SatisfiesContext(ctx, wl.Net, res.Deployment, wl.Requirements())
	st.verify = time.Since(t)
	if err != nil {
		return nil, st, fmt.Errorf("verify %s: %w", name, err)
	}
	return &problem{wl: wl, synth: opts, dep: res.Deployment, verified: ok, names: names}, st, nil
}

// options returns the explainer options the problem was synthesized
// for.
func (p *problem) options(lift bool) core.Options {
	o := core.DefaultOptions()
	o.Synth = p.synth
	o.Lift = lift
	return o
}

// digest is a report's identity for output checks.
type digest [sha256.Size]byte

// edit is one seeded single-router perturbation of a problem.
type edit struct {
	netgen.Edit
	dep  config.Deployment
	text string // config.PrintDeployment(dep)
}

func (e edit) String() string { return e.Router + " " + e.Detail }

// routeMap is the name of the route-map the edit changes.
func (e edit) routeMap() string { return strings.Fields(e.Detail)[0] }

// editCandidates enumerates distinct single-edit perturbations of dep
// drawn from netgen.Perturb with seeds derived from seed, up to limit
// draws, grouped by edit kind in draw order.
func editCandidates(dep config.Deployment, seed int64, limit int) map[string][]edit {
	base := config.PrintDeployment(dep)
	seen := map[string]bool{base: true}
	out := make(map[string][]edit)
	for j := int64(0); j < int64(limit); j++ {
		ed, edits := netgen.Perturb(dep, seed*1_000_003+j, 1)
		if len(edits) != 1 {
			continue
		}
		text := config.PrintDeployment(ed)
		if seen[text] {
			continue
		}
		seen[text] = true
		out[edits[0].Kind] = append(out[edits[0].Kind], edit{Edit: edits[0], dep: ed, text: text})
	}
	return out
}

// relabeledEdit finds e's edit site in p: a netgen.Perturb draw of the
// same kind on the same route-map, under p's router names (the new
// value may differ; every edit kind keeps the site's structure). The
// draws perturb the edited router alone, which keeps the search short
// on wide networks; the result is spliced into a copy of p's
// deployment.
func relabeledEdit(p *problem, e edit) (edit, bool) {
	router := p.names[e.Router]
	rm := e.routeMap()
	for _, sep := range []string{"_from_", "_to_"} {
		if a, b, ok := strings.Cut(rm, sep); ok {
			rm = p.names[a] + sep + p.names[b]
			break
		}
	}
	one := config.Deployment{router: p.dep[router]}
	for j := int64(0); j < 1000; j++ {
		ed, edits := netgen.Perturb(one, j, 1)
		if len(edits) != 1 {
			continue
		}
		f := edits[0]
		if f.Kind != e.Kind || !strings.HasPrefix(f.Detail, rm+" ") {
			continue
		}
		dep := make(config.Deployment, len(p.dep))
		for r, c := range p.dep {
			dep[r] = c
		}
		dep[router] = ed[router]
		return edit{Edit: f, dep: dep, text: config.PrintDeployment(dep)}, true
	}
	return edit{}, false
}

package rewrite_test

import (
	"context"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/rewrite"
	"repro/internal/scenarios"
	"repro/internal/synth"
)

// TestStoredPassesMatchClosureWalk checks, on the real explanation
// pipeline, that the "N passes" figure read from the maximum stored in
// the normal-form cache equals the maximum found by walking each
// seed's dependency closure. Every router of the seed scenarios and
// the netgen presets is explained, four at a time, so several
// simplifiers fill the session's shared cache concurrently.
func TestStoredPassesMatchClosureWalk(t *testing.T) {
	ctx := context.Background()
	type workload struct {
		name string
		ex   func() (*core.Explainer, error)
	}
	var wls []workload
	for _, sc := range scenarios.All() {
		sc := sc
		wls = append(wls, workload{sc.Name, func() (*core.Explainer, error) {
			res, err := synth.SynthesizeContext(ctx, sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
			if err != nil {
				return nil, err
			}
			opts := core.DefaultOptions()
			opts.Lift = false
			return core.NewExplainer(sc.Net, sc.Requirements(), res.Deployment, opts)
		}})
	}
	presets := []struct {
		name  string
		build func() (*netgen.Workload, error)
	}{
		{"grid_3x3", func() (*netgen.Workload, error) { return netgen.Grid(3, 3, false) }},
		{"fattree_4", func() (*netgen.Workload, error) { return netgen.FatTree(4, false) }},
		{"rand_20", func() (*netgen.Workload, error) { return netgen.Random(20, 2.5, 42, false) }},
	}
	for _, p := range presets {
		p := p
		wls = append(wls, workload{p.name, func() (*core.Explainer, error) {
			wl, err := p.build()
			if err != nil {
				return nil, err
			}
			netgen.Populate(wl)
			sopts := synth.DefaultOptions()
			sopts.MaxPathLen = 7
			sopts.MaxCandidatesPerNode = 8
			res, err := synth.SynthesizeContext(ctx, wl.Net, wl.Sketch, wl.Requirements(), sopts)
			if err != nil {
				return nil, err
			}
			opts := core.DefaultOptions()
			opts.Lift = false
			opts.Synth = sopts
			return core.NewExplainer(wl.Net, wl.Requirements(), res.Deployment, opts)
		}})
	}

	for _, wl := range wls {
		t.Run(wl.name, func(t *testing.T) {
			e, err := wl.ex()
			if err != nil {
				t.Fatal(err)
			}
			routers := make([]string, 0, len(e.Deployment))
			for r := range e.Deployment {
				routers = append(routers, r)
			}
			sort.Strings(routers)
			exs := make([]*core.Explanation, len(routers))
			errs := make([]error, len(routers))
			var wg sync.WaitGroup
			sem := make(chan struct{}, 4)
			for i, r := range routers {
				wg.Add(1)
				go func(i int, r string) {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					exs[i], errs[i] = e.ExplainAllContext(ctx, r)
				}(i, r)
			}
			wg.Wait()
			nf := e.Session.NormCache()
			for i, r := range routers {
				if errs[i] != nil {
					t.Fatalf("%s: %v", r, errs[i])
				}
				if walked := rewrite.ClosurePasses(nf, exs[i].Seed); exs[i].Passes != walked {
					t.Errorf("%s: stored Passes=%d, closure walk=%d", r, exs[i].Passes, walked)
				}
			}
		})
	}
}

package synth_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/bgp"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/scenarios"
	"repro/internal/synth"
	"repro/internal/topology"
)

// TestBaseDerivedVocabulary checks the base's vocabulary index: for
// every router of the seed scenarios and netgen presets, symbolized the
// way explanations symbolize it, the vocabulary an encoder derives from
// the base must equal the one built from scratch value for value, and
// must reuse the base's sorts exactly when the item sets are equal. The
// same holds over edited deployments — netgen.Perturb edits plus edits
// that add a community and a next-hop IP, or drop a router's tags —
// both against the original base (many dirty routers) and against a
// successor base built with NewBaseFrom, whose updated index must
// match a fresh count.
func TestBaseDerivedVocabulary(t *testing.T) {
	ctx := context.Background()
	type problem struct {
		name string
		net  *topology.Network
		dep  config.Deployment
		opts synth.Options
	}
	var probs []problem
	for _, sc := range scenarios.All() {
		res, err := synth.SynthesizeContext(ctx, sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		probs = append(probs, problem{sc.Name, sc.Net, res.Deployment, synth.DefaultOptions()})
	}
	for _, p := range []struct {
		name  string
		build func() (*netgen.Workload, error)
	}{
		{"grid_3x3", func() (*netgen.Workload, error) { return netgen.Grid(3, 3, false) }},
		{"fattree_4", func() (*netgen.Workload, error) { return netgen.FatTree(4, false) }},
		{"rand_20", func() (*netgen.Workload, error) { return netgen.Random(20, 2.5, 42, false) }},
	} {
		wl, err := p.build()
		if err != nil {
			t.Fatal(err)
		}
		netgen.Populate(wl)
		opts := synth.DefaultOptions()
		opts.MaxPathLen = 7
		opts.MaxCandidatesPerNode = 8
		res, err := synth.SynthesizeContext(ctx, wl.Net, wl.Sketch, wl.Requirements(), opts)
		if err != nil {
			t.Fatal(err)
		}
		probs = append(probs, problem{p.name, wl.Net, res.Deployment, opts})
	}

	changed, shrunk := 0, 0
	for _, p := range probs {
		base, err := synth.NewBase(ctx, p.net, p.dep, p.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !synth.BaseIndexCheck(base) {
			t.Fatalf("%s: base index differs from a fresh count", p.name)
		}
		routers := sortedRouters(p.dep)
		variants := map[string]config.Deployment{"unedited": p.dep}
		for seed := int64(1); seed <= 3; seed++ {
			ed, _ := netgen.Perturb(p.dep, seed, 3)
			variants[fmt.Sprintf("perturb%d", seed)] = ed
		}
		// A tag and an address only the first router mentions, and the
		// last router's tags dropped.
		first, last := routers[0], routers[len(routers)-1]
		variants["add-tags"] = editRouter(p.dep, first, func(c *config.Config) {
			cl := &config.Clause{Seq: 999, Action: config.Permit, Sets: []*config.Set{
				{Kind: config.SetCommunity, Community: bgp.MustCommunity("777:7")},
				{Kind: config.SetNextHopIP, NextHopIP: "10.9.9.9"},
			}}
			c.RouteMaps["ZZ_VOCAB"] = &config.RouteMap{Name: "ZZ_VOCAB", Clauses: []*config.Clause{cl}}
		})
		variants["drop-tags"] = editRouter(p.dep, last, func(c *config.Config) {
			for _, rm := range c.RouteMaps {
				for _, cl := range rm.Clauses {
					var sets []*config.Set
					for _, s := range cl.Sets {
						if s.Kind != config.SetCommunity {
							sets = append(sets, s)
						}
					}
					var matches []*config.Match
					for _, m := range cl.Matches {
						if m.Kind != config.MatchCommunity {
							matches = append(matches, m)
						}
					}
					cl.Sets, cl.Matches = sets, matches
				}
			}
		})

		for vname, dep := range variants {
			succ, err := synth.NewBaseFrom(ctx, p.net, dep, p.opts, base)
			if err != nil {
				t.Fatal(err)
			}
			if !synth.BaseIndexCheck(succ) {
				t.Fatalf("%s/%s: successor base index differs from a fresh count", p.name, vname)
			}
			check := func(b *synth.Base, sketch config.Deployment, what string) (sameItems bool) {
				equal, sameItems, shared := synth.VocabCheck(b, sketch)
				if !equal {
					t.Fatalf("%s/%s %s: derived vocabulary differs from buildVocab", p.name, vname, what)
				}
				if shared != sameItems {
					t.Fatalf("%s/%s %s: sorts shared=%v, but item sets equal=%v", p.name, vname, what, shared, sameItems)
				}
				if !sameItems {
					changed++
				}
				return sameItems
			}
			check(base, dep, "whole deployment")
			for _, r := range sortedRouters(dep) {
				sym, _, err := core.Symbolize(dep[r], core.AllTargets(dep[r]))
				if err != nil {
					t.Fatal(err)
				}
				sketch := config.Deployment{}
				for name, c := range dep {
					sketch[name] = c
				}
				sketch[r] = sym
				if !check(succ, sketch, "symbolizing "+r) && vname == "add-tags" && r == first {
					shrunk++
				}
			}
		}
	}
	if changed == 0 || shrunk != len(probs) {
		t.Fatalf("vocabulary changed in %d checks and shrank on %d of %d symbolizations of a tag's only user",
			changed, shrunk, len(probs))
	}
}

func sortedRouters(dep config.Deployment) []string {
	out := make([]string, 0, len(dep))
	for r := range dep {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// editRouter returns dep with router's config replaced by an edited
// clone; the other routers keep their pointers.
func editRouter(dep config.Deployment, router string, edit func(*config.Config)) config.Deployment {
	out := config.Deployment{}
	for name, c := range dep {
		out[name] = c
	}
	c := dep[router].Clone()
	edit(c)
	out[router] = c
	return out
}

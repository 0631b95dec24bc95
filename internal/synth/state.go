package synth

import (
	"fmt"
	"sort"

	"repro/internal/bgp"
	"repro/internal/config"
	"repro/internal/logic"
	"repro/internal/topology"
)

// vocab holds the finite sorts the encoding ranges over: route-map
// actions, the network's prefixes, the community vocabulary, and the
// neighbor names usable in next-hop matches.
type vocab struct {
	actionSort *logic.Sort
	prefixSort *logic.Sort
	commSort   *logic.Sort
	nbrSort    *logic.Sort
	ipSort     *logic.Sort

	prefixes    []string // sorted prefix strings
	communities []bgp.Community
	ips         []string
}

// actionPermit and actionDeny are the two constants of the action
// sort.
const (
	actionPermit = "permit"
	actionDeny   = "deny"
)

// vocabItem is one entry of a configuration's contribution to the
// deployment-dependent vocabulary: a concrete community tag, or, when
// ip is set, a concrete next-hop IP.
type vocabItem struct {
	comm bgp.Community
	ip   string
}

// defaultVocab is always in the vocabulary, so community and next-hop
// holes have room to choose and these tags never drop out when a
// router mentioning them is symbolized away: countVocab counts each
// once on top of the deployment's mentions.
var defaultVocab = []vocabItem{
	{comm: bgp.MustCommunity("100:1")}, {comm: bgp.MustCommunity("100:2")},
	{ip: "10.0.0.1"}, {ip: "10.0.0.2"},
}

// forEachVocabItem calls visit once per mention of a vocabulary item
// in c's route maps, in no particular order: the one definition of a
// configuration's vocabulary contribution.
func forEachVocabItem(c *config.Config, visit func(vocabItem)) {
	for _, rm := range c.RouteMaps {
		for _, cl := range rm.Clauses {
			for _, m := range cl.Matches {
				if m.Kind == config.MatchCommunity && m.ValueHole == "" {
					visit(vocabItem{comm: m.Community})
				}
			}
			for _, s := range cl.Sets {
				switch {
				case s.Kind == config.SetCommunity && s.ParamHole == "":
					visit(vocabItem{comm: s.Community})
				case s.Kind == config.SetNextHopIP && s.ParamHole == "" && s.NextHopIP != "":
					visit(vocabItem{ip: s.NextHopIP})
				}
			}
		}
	}
}

// buildVocab builds the vocabulary of a deployment over net whose
// item mentions are counted in counts (see countVocab).
func buildVocab(net *topology.Network, counts vocabCounts) *vocab {
	v := &vocab{}
	v.actionSort = logic.NewEnumSort("RMAction", actionPermit, actionDeny)

	seenP := map[string]bool{}
	for _, r := range net.Routers() {
		if r.HasPrefix {
			seenP[r.Prefix.String()] = true
		}
	}
	for p := range seenP {
		v.prefixes = append(v.prefixes, p)
	}
	sort.Strings(v.prefixes)
	v.prefixSort = logic.NewEnumSort("Prefix", v.prefixes...)
	v.nbrSort = logic.NewEnumSort("Neighbor", net.RouterNames()...)
	v.setItems(counts)
	return v
}

// setItems sets the community and next-hop-IP sorts to the items in
// counts.
func (v *vocab) setItems(counts vocabCounts) {
	v.communities, v.ips = nil, nil
	for it := range counts {
		if it.ip == "" {
			v.communities = append(v.communities, it.comm)
		} else {
			v.ips = append(v.ips, it.ip)
		}
	}
	sort.Slice(v.communities, func(i, j int) bool {
		return v.communities[i].String() < v.communities[j].String()
	})
	commNames := make([]string, len(v.communities))
	for i, c := range v.communities {
		commNames[i] = "c" + c.String()
	}
	v.commSort = logic.NewEnumSort("Community", commNames...)
	sort.Strings(v.ips)
	v.ipSort = logic.NewEnumSort("NextHopIP", v.ips...)
}

// VocabContribFingerprint hashes one configuration's contribution to
// the encoder's deployment-dependent vocabulary: the concrete
// community tags and next-hop IPs its route-maps mention (buildVocab
// folds these into the enum sorts every hole variable of the
// deployment ranges over). Explanation encodings symbolize one router
// at a time, so the vocabulary seen when explaining router Y is the
// union of every OTHER router's contribution — if each router's
// contribution is unchanged between two deployments, every derived
// encoding's sorts are unchanged too. Prefixes and neighbor names come
// from the topology and need no fingerprinting.
func VocabContribFingerprint(c *config.Config) uint64 {
	// The vocabulary is a set, so repeating a tag is not a contribution
	// change: hash the distinct items in sorted order.
	counts := vocabCounts{}
	counts.add(c, 1)
	items := make([]string, 0, len(counts))
	for it := range counts {
		if it.ip != "" {
			items = append(items, "ip"+it.ip)
		} else {
			items = append(items, "c"+it.comm.String())
		}
	}
	sort.Strings(items)
	h := uint64(14695981039346656037)
	for _, it := range items {
		for i := 0; i < len(it); i++ {
			h = (h ^ uint64(it[i])) * 1099511628211
		}
		h = (h ^ 0xff) * 1099511628211
	}
	return h
}

// ModeledFingerprint hashes a configuration modulo the concrete values
// the encoding ignores: MED metrics and next-hop IP rewrites are
// masked before hashing, while the lines themselves still count
// (symbolization surfaces a hole variable per set line, so adding or
// removing one changes the explanation problem even when its value
// never constrains anything). Two concrete configurations with equal
// modeled fingerprints and equal vocabulary contributions
// (VocabContribFingerprint) yield identical constraint systems under
// every symbolization of the surrounding deployment.
func ModeledFingerprint(c *config.Config) uint64 {
	masked := c.Clone()
	for _, name := range masked.RouteMapNames() {
		for _, cl := range masked.RouteMaps[name].Clauses {
			for _, s := range cl.Sets {
				switch s.Kind {
				case config.SetMED:
					s.MED = 0
				case config.SetNextHopIP:
					if s.ParamHole == "" {
						s.NextHopIP = ""
					}
				}
			}
		}
	}
	return config.Fingerprint(masked)
}

// commConst returns the enum literal of a community.
func (v *vocab) commConst(c bgp.Community) *logic.EnumLit {
	return logic.NewEnum(v.commSort, "c"+c.String())
}

// prefixConst returns the enum literal of a prefix string.
func (v *vocab) prefixConst(p string) *logic.EnumLit {
	return logic.NewEnum(v.prefixSort, p)
}

// routeState is the symbolic attribute state of a route announcement
// at some point along a candidate propagation path.
type routeState struct {
	// prefix is the (always concrete) destination prefix string.
	prefix string
	// lp is the local-preference rank at the current node, an
	// Int-sorted term.
	lp logic.Term
	// comms maps each vocabulary community to the (Bool-sorted)
	// condition under which the route carries it. Absent means false.
	comms map[bgp.Community]logic.Term
	// nextHop is the neighbor the current node learned the route from
	// ("" at the origin). Always concrete: it is determined by the
	// candidate path.
	nextHop string
}

func originState(prefix string) *routeState {
	return &routeState{
		prefix: prefix,
		lp:     logic.NewInt(lpRankDefault),
		comms:  map[bgp.Community]logic.Term{},
	}
}

func (s *routeState) clone() *routeState {
	cp := *s
	cp.comms = make(map[bgp.Community]logic.Term, len(s.comms))
	for c, t := range s.comms {
		cp.comms[c] = t
	}
	return &cp
}

// hasComm returns the condition under which the route carries c.
func (s *routeState) hasComm(c bgp.Community) logic.Term {
	if t, ok := s.comms[c]; ok {
		return t
	}
	return logic.False
}

// holeVar creates (or reuses) the logic variable for a hole. The hole
// kind determines the sort.
func (e *Encoder) holeVar(name string, mk func() *logic.Var) (*logic.Var, error) {
	if v, ok := e.holeVars[name]; ok {
		fresh := mk()
		if !logic.SameSort(v.S, fresh.S) {
			return nil, fmt.Errorf("synth: hole %q used at two sorts (%v and %v)", name, v.S, fresh.S)
		}
		return v, nil
	}
	v := mk()
	e.holeVars[name] = v
	return v, nil
}

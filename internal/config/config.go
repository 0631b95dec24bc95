// Package config models router configurations in a simplified
// Cisco-IOS-like dialect: BGP neighbor stanzas binding route-maps to
// import/export directions, route-maps made of permit/deny clauses
// with match and set lines, prefix lists, and community lists — the
// shape of the configurations NetComplete emits (see the paper's
// Figure 1c).
//
// Configurations double as *sketches*: any clause field (the action,
// a match's attribute or value, a set line's parameter) may be a hole,
// a named symbolic variable to be filled by the synthesizer or left
// symbolic by the explainer (the paper's Figure 6b, where concrete
// lines are replaced by Var_Attr / Var_Val / Var_Action / Var_Param).
// Concrete application (the bgp.PolicyProvider implementation) refuses
// configurations that still contain holes.
package config

import (
	"fmt"
	"net/netip"
	"sort"

	"repro/internal/bgp"
)

// Action is a route-map clause disposition.
type Action int

const (
	// Deny drops the route.
	Deny Action = iota
	// Permit accepts the route (after applying set lines).
	Permit
)

// String renders the action in IOS syntax.
func (a Action) String() string {
	if a == Permit {
		return "permit"
	}
	return "deny"
}

// Direction distinguishes import from export route-map bindings.
type Direction int

const (
	// In is the import direction (routes received from the peer).
	In Direction = iota
	// Out is the export direction (routes announced to the peer).
	Out
)

// String renders the direction in IOS syntax.
func (d Direction) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// MatchKind selects what a match line inspects.
type MatchKind int

const (
	// MatchPrefixList matches the route's prefix against a named
	// prefix list.
	MatchPrefixList MatchKind = iota
	// MatchCommunity matches a community tag on the route.
	MatchCommunity
	// MatchNextHopIs matches the neighbor the route was learned from.
	MatchNextHopIs
)

// String renders the match kind.
func (k MatchKind) String() string {
	switch k {
	case MatchPrefixList:
		return "prefix-list"
	case MatchCommunity:
		return "community"
	case MatchNextHopIs:
		return "next-hop"
	}
	return "?"
}

// Match is one match line of a clause. When ValueHole is non-empty the
// matched value is symbolic (the paper's Var_Val); the Kind remains
// concrete, mirroring NetComplete's sketches where the attribute kind
// is given by the template and the value is synthesized.
type Match struct {
	Kind MatchKind
	// PrefixList names the prefix list for MatchPrefixList.
	PrefixList string
	// Community is the tag for MatchCommunity.
	Community bgp.Community
	// NextHop is the neighbor name for MatchNextHopIs.
	NextHop string
	// ValueHole, when non-empty, marks the match value symbolic under
	// that variable name.
	ValueHole string
}

// SetKind selects what a set line modifies.
type SetKind int

const (
	// SetLocalPref sets the route's local preference.
	SetLocalPref SetKind = iota
	// SetCommunity adds a community tag.
	SetCommunity
	// SetMED sets the multi-exit discriminator.
	SetMED
	// SetNextHopIP rewrites the next-hop IP. It does not influence
	// route selection in this model — it is the "cosmetic" attribute
	// whose redundancy the paper's Scenario 1 exposes.
	SetNextHopIP
)

// String renders the set kind.
func (k SetKind) String() string {
	switch k {
	case SetLocalPref:
		return "local-preference"
	case SetCommunity:
		return "community"
	case SetMED:
		return "metric"
	case SetNextHopIP:
		return "next-hop"
	}
	return "?"
}

// Set is one set line of a clause. ParamHole, when non-empty, marks
// the parameter symbolic (the paper's Var_Param).
type Set struct {
	Kind      SetKind
	LocalPref int
	Community bgp.Community
	MED       int
	NextHopIP string
	ParamHole string
}

// Clause is one numbered permit/deny clause of a route map. ActionHole,
// when non-empty, marks the action symbolic (the paper's Var_Action).
type Clause struct {
	Seq        int
	Action     Action
	ActionHole string
	Matches    []*Match
	Sets       []*Set
}

// RouteMap is an ordered list of clauses; the first clause whose
// matches all hold decides the route, and a route matching no clause
// is denied (IOS semantics).
type RouteMap struct {
	Name    string
	Clauses []*Clause
}

// PrefixEntry is one line of a prefix list.
type PrefixEntry struct {
	Seq    int
	Action Action
	Prefix netip.Prefix
}

// PrefixList is a named ordered prefix filter.
type PrefixList struct {
	Name    string
	Entries []PrefixEntry
}

// Permits reports whether the list permits the prefix: first matching
// entry decides; no match denies.
func (pl *PrefixList) Permits(p netip.Prefix) bool {
	for _, e := range pl.Entries {
		if e.Prefix == p {
			return e.Action == Permit
		}
	}
	return false
}

// Neighbor binds route-maps to a BGP session with a peer.
type Neighbor struct {
	Peer string
	// ImportMap and ExportMap name route maps ("" means accept/send
	// everything unchanged).
	ImportMap string
	ExportMap string
}

// Config is the configuration of one router.
type Config struct {
	Router      string
	Neighbors   []*Neighbor
	RouteMaps   map[string]*RouteMap
	PrefixLists map[string]*PrefixList
}

// New creates an empty configuration for the named router.
func New(router string) *Config {
	return &Config{
		Router:      router,
		RouteMaps:   make(map[string]*RouteMap),
		PrefixLists: make(map[string]*PrefixList),
	}
}

// Neighbor returns the binding for peer, or nil.
func (c *Config) Neighbor(peer string) *Neighbor {
	for _, n := range c.Neighbors {
		if n.Peer == peer {
			return n
		}
	}
	return nil
}

// AddNeighbor appends a neighbor binding, replacing any existing
// binding for the same peer.
func (c *Config) AddNeighbor(peer, importMap, exportMap string) {
	if n := c.Neighbor(peer); n != nil {
		n.ImportMap, n.ExportMap = importMap, exportMap
		return
	}
	c.Neighbors = append(c.Neighbors, &Neighbor{Peer: peer, ImportMap: importMap, ExportMap: exportMap})
}

// AddRouteMap registers a route map.
func (c *Config) AddRouteMap(rm *RouteMap) { c.RouteMaps[rm.Name] = rm }

// AddPrefixList registers a prefix list.
func (c *Config) AddPrefixList(pl *PrefixList) { c.PrefixLists[pl.Name] = pl }

// RouteMapNames returns the sorted route-map names.
func (c *Config) RouteMapNames() []string {
	out := make([]string, 0, len(c.RouteMaps))
	for n := range c.RouteMaps {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PrefixListNames returns the sorted prefix-list names.
func (c *Config) PrefixListNames() []string {
	out := make([]string, 0, len(c.PrefixLists))
	for n := range c.PrefixLists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Hole describes one symbolic field of a configuration sketch.
type Hole struct {
	// Name is the symbolic variable name.
	Name string
	// Where locates the hole for diagnostics, e.g.
	// "route-map R1_to_P1 clause 10 action".
	Where string
}

// Holes lists the symbolic fields of the configuration in
// deterministic order.
func (c *Config) Holes() []Hole {
	var out []Hole
	for _, name := range c.RouteMapNames() {
		rm := c.RouteMaps[name]
		for _, cl := range rm.Clauses {
			at := fmt.Sprintf("route-map %s clause %d", rm.Name, cl.Seq)
			if cl.ActionHole != "" {
				out = append(out, Hole{Name: cl.ActionHole, Where: at + " action"})
			}
			for i, m := range cl.Matches {
				if m.ValueHole != "" {
					out = append(out, Hole{Name: m.ValueHole, Where: fmt.Sprintf("%s match %d (%s)", at, i, m.Kind)})
				}
			}
			for i, s := range cl.Sets {
				if s.ParamHole != "" {
					out = append(out, Hole{Name: s.ParamHole, Where: fmt.Sprintf("%s set %d (%s)", at, i, s.Kind)})
				}
			}
		}
	}
	return out
}

// Concrete reports whether the configuration has no holes. It stops
// at the first hole and allocates nothing (Holes builds the list).
func (c *Config) Concrete() bool {
	for _, rm := range c.RouteMaps {
		for _, cl := range rm.Clauses {
			if cl.ActionHole != "" {
				return false
			}
			for _, m := range cl.Matches {
				if m.ValueHole != "" {
					return false
				}
			}
			for _, s := range cl.Sets {
				if s.ParamHole != "" {
					return false
				}
			}
		}
	}
	return true
}

// Clone deep-copies the configuration, so sketches can be filled or
// symbolized without disturbing the original.
func (c *Config) Clone() *Config {
	out := New(c.Router)
	for _, n := range c.Neighbors {
		cp := *n
		out.Neighbors = append(out.Neighbors, &cp)
	}
	for name, rm := range c.RouteMaps {
		nrm := &RouteMap{Name: rm.Name}
		for _, cl := range rm.Clauses {
			ncl := &Clause{Seq: cl.Seq, Action: cl.Action, ActionHole: cl.ActionHole}
			for _, m := range cl.Matches {
				mc := *m
				ncl.Matches = append(ncl.Matches, &mc)
			}
			for _, s := range cl.Sets {
				sc := *s
				ncl.Sets = append(ncl.Sets, &sc)
			}
			nrm.Clauses = append(nrm.Clauses, ncl)
		}
		out.RouteMaps[name] = nrm
	}
	for name, pl := range c.PrefixLists {
		npl := &PrefixList{Name: pl.Name, Entries: append([]PrefixEntry(nil), pl.Entries...)}
		out.PrefixLists[name] = npl
	}
	return out
}

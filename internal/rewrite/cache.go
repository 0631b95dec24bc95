package rewrite

import (
	"sync"
	"sync/atomic"

	"repro/internal/logic"
)

// numRules is the size of the per-entry rule-fire array; index a rule
// with ruleIndex.
const numRules = 15

// ruleIndex maps each rule to its position in AllRules (and in every
// fireCounts array).
var ruleIndex = func() map[RuleName]int {
	m := make(map[RuleName]int, len(AllRules))
	for i, r := range AllRules {
		m[r] = i
	}
	if len(m) != numRules {
		panic("rewrite: numRules out of sync with AllRules")
	}
	return m
}()

// fireCounts is a compact per-rule fire counter.
type fireCounts [numRules]uint32

// nfEntry is one cached normalization: the normal form of a distinct
// canonical term, plus the diagnostics of computing it. An entry's
// fires count only the rules fired at this term's own node; the work
// done inside subterms (and inside terms derived while rewriting this
// node) is reachable through deps, so a deterministic walk of the
// dependency closure reconstructs a whole seed's rule statistics
// regardless of how warm the cache was or which goroutine filled it.
//
// maxRounds is the maximum of rounds over that same closure, folded in
// when the entry is published: every dependency edge points at an
// entry that was already published (and is never replaced), so the
// edges form a DAG and max(own rounds, deps' maxRounds) is exactly the
// closure maximum, with no walk. Entries are immutable once published.
type nfEntry struct {
	out       logic.Term
	fires     fireCounts
	rounds    uint32 // equality-propagation rounds taken at this node
	maxRounds uint32 // max rounds over the dependency closure
	deps      []logic.Term
}

// Cache is a persistent normal-form table keyed by canonical term
// pointer. It is safe for concurrent use: readers take an RLock,
// writers publish complete immutable entries, and racing computations
// of the same term resolve first-wins (the entries are deterministic,
// so either is correct). A Cache is only shareable between Simplifiers
// running the default configuration — see Simplifier.Simplify.
type Cache struct {
	mu     sync.RWMutex
	m      map[logic.Term]*nfEntry
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewCache creates an empty normal-form cache.
func NewCache() *Cache {
	return &Cache{m: make(map[logic.Term]*nfEntry)}
}

// get returns the cached entry for t, counting a hit or miss.
func (c *Cache) get(t logic.Term) (*nfEntry, bool) {
	c.mu.RLock()
	e, ok := c.m[t]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

// put publishes the entry for t and returns the entry the cache holds.
// First writer wins; a concurrent duplicate (same term raced by two
// goroutines) is discarded and the first returned, keeping the
// dependency graph stable for readers that already saw the first.
func (c *Cache) put(t logic.Term, e *nfEntry) *nfEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if won, dup := c.m[t]; dup {
		return won
	}
	c.m[t] = e
	return e
}

// Hits returns the number of cache lookups answered from the table.
func (c *Cache) Hits() uint64 { return c.hits.Load() }

// Misses returns the number of cache lookups that required a fresh
// normalization.
func (c *Cache) Misses() uint64 { return c.misses.Load() }

// Len returns the number of cached normal forms.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// RuleFires returns how many times each rule fired while normalizing
// t and its dependency closure (rules that never fired are absent).
// It walks the closure, so it is meant for diagnostics tables, not for
// the report path; t must have been simplified through this cache.
func (c *Cache) RuleFires(t logic.Term) map[RuleName]int {
	fires, _ := c.collectFrom(logic.Intern(t))
	m := make(map[RuleName]int)
	addFires(m, fires)
	return m
}

// addFires accumulates a fire-count array into a per-rule map.
func addFires(m map[RuleName]int, fires fireCounts) {
	for i, n := range fires {
		if n > 0 {
			m[AllRules[i]] += int(n)
		}
	}
}

// collectFrom walks the dependency closure of t's entry and returns
// the aggregate per-rule fire counts and the maximum propagation round
// count over the closure. Each distinct term is counted once, which is
// what makes a seed's reported statistics deterministic: they depend
// only on the set of distinct subterms normalized for it, not on cache
// warmth or scheduling. The round maximum equals the entry's stored
// maxRounds; tests check the two against each other.
func (c *Cache) collectFrom(t logic.Term) (fires fireCounts, maxRounds uint32) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	visited := make(map[logic.Term]struct{})
	stack := []logic.Term{t}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, seen := visited[u]; seen {
			continue
		}
		visited[u] = struct{}{}
		e, ok := c.m[u]
		if !ok {
			continue
		}
		for i := range e.fires {
			fires[i] += e.fires[i]
		}
		if e.rounds > maxRounds {
			maxRounds = e.rounds
		}
		stack = append(stack, e.deps...)
	}
	return fires, maxRounds
}

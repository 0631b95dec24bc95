package rewrite

import "repro/internal/logic"

// ClosurePasses recomputes Passes for t by walking its dependency
// closure in c, for tests outside the package that check the stored
// maximum against it.
func ClosurePasses(c *Cache, t logic.Term) int { return closurePasses(c, t) }

// Package mutok holds the writes the sealedmut analyzer must allow:
// mutation of value copies (a copy cannot alias the shared cache) and
// justified pre-publication construction writes.
package mutok

import (
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/plancache"
)

// zero mutates a value parameter: the caller's snapshot arenas are untouched.
func zero(qp plancache.QueryPlans) plancache.QueryPlans {
	qp.Coefs = nil
	return qp
}

// copyStats works on a copied stats struct, not the cache's.
func copyStats(c *inum.Cache) inum.BuildStats {
	stats := c.Stats
	stats.OptimizerCalls = 0
	return stats
}

// publish fills Stats on a cache that is still function-local, with the
// justification the analyzer insists on.
func publish(c *inum.Cache) *inum.Cache {
	//pinum:sealed-ok the cache is unpublished until this function returns; no reader can exist yet
	c.Stats.OptimizerCalls = 2
	return c
}

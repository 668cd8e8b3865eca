// Package mutfix seeds post-publication writes to the shared-immutable
// cache structures from a consumer package: each one is a data race
// against the serving layer's lock-free concurrent readers.
package mutfix

import (
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/plancache"
)

// restamp mutates a published cache's stats from outside the constructors.
func restamp(c *inum.Cache) {
	c.Stats.Mem = c.MemStats() // want "shared immutable"
}

// tweak rewrites a cached plan's internal cost in place — the seeded
// post-publication write.
func tweak(c *inum.Cache) {
	c.Plans[0] = 0 // want "shared immutable"
}

// rewrite zeroes a coefficient in a loaded snapshot's arena in place.
func rewrite(s *plancache.Snapshot) {
	s.Queries[0].Coefs[0] = 0 // want "shared immutable"
}

// bump increments a snapshot fingerprint in place.
func bump(s *plancache.Snapshot) {
	s.Fingerprint++ // want "shared immutable"
}

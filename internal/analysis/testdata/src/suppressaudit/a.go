// Package fixture carries markers from retired analyzer vocabulary
// for the suppression-audit tests; the go tool never builds testdata
// trees.
package fixture

type counters struct {
	//klocs:owner=atomic
	hits uint64
	//klocs:ignore-lockcheck
	misses uint64
}

func (c *counters) touch(hit bool) {
	if hit {
		c.hits++
		return
	}
	c.misses++
}

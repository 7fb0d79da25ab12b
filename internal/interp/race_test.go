//go:build race

package interp

// raceEnabled gates allocation-ceiling assertions: under the race
// detector sync.Pool randomly bypasses pooling, so pool-backed paths
// legitimately allocate more than their steady-state ceilings.
func init() { raceEnabled = true }

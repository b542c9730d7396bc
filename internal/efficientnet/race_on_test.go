//go:build race

package efficientnet

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put back, so the kernels' scratch pool re-allocates and allocation counts
// mean nothing.
const raceEnabled = true

//go:build race

package tensor

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put back, so the Scratch arena re-allocates and allocation counts mean
// nothing.
const raceEnabled = true

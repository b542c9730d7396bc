//go:build race

package comm

// raceEnabled: the race detector allocates inside sync primitives, so
// allocation counts mean nothing under it.
const raceEnabled = true

//go:build race

package optim

// raceEnabled: the race detector's instrumentation may allocate, so
// allocation counts mean nothing under it.
const raceEnabled = true

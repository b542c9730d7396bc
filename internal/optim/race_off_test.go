//go:build !race

package optim

const raceEnabled = false

//go:build !race

package efficientnet

const raceEnabled = false

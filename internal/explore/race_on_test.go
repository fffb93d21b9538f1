//go:build race

package explore

// raceEnabled reports whether the race detector is compiled in; the deeper
// reader configurations run a step shallower under it.
const raceEnabled = true

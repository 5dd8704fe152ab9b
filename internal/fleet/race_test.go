//go:build race

package fleet_test

// raceEnabled reports a -race build. The race detector's shadow memory
// multiplies the fleet's resident set, so TestFleetSmoke sizes its
// ceiling from it.
const raceEnabled = true

//go:build race

package sim

// raceEnabled reports a -race build: the race detector makes sync.Pool drop
// items at random and instruments allocation, so allocation counts are
// meaningless there.
const raceEnabled = true

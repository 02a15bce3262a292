//go:build race

package cluster

// raceEnabled reports a -race build, whose sync.Pool drops a quarter of
// its puts at random: allocation counts through a pool mean nothing there.
const raceEnabled = true

//go:build race

package dist

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of Puts and pooled allocation counts lose their meaning.
const raceEnabled = true

//go:build race

package dist

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of Puts: a skeleton build then misses skelPool and allocates a
// fresh per-set arena, so pooled allocation counts vary run to run.
const raceEnabled = true

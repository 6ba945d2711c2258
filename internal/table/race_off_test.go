//go:build !race

package table

// raceEnabled reports that the race detector is instrumenting this
// build. Under it sync.Pool drops pooled buffers at random, so
// allocation-count gates on pooled scratch do not hold and skip
// themselves.
const raceEnabled = false

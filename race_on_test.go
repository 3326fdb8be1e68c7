//go:build race

package opera_test

// raceEnabled reports that this test binary was built with -race; the
// flat-memory soak and the cluster allocation gate skip themselves there —
// heap growth and allocation counts are numeric properties the race
// allocator distorts, and nothing in them is concurrent.
const raceEnabled = true

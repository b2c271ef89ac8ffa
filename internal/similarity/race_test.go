//go:build race

package similarity

// raceEnabled flags that the race detector is instrumenting allocations;
// the AllocsPerRun guards skip themselves because instrumented runs
// allocate on paths the production build does not.
const raceEnabled = true

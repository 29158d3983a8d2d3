package ordinary

import "indexedrec/internal/core"

// RunPathAccepts reports whether CompilePlan compiles s on the run path
// (compileRuns) rather than through the write-chain forest.
func RunPathAccepts(s *core.System) bool { return compileRuns(s, false) != nil }

package optimal

import (
	"testing"

	"lpbuf/internal/sched"
)

// ResourceLoopDAG exposes resourceLoop's body DAG to the external test
// package, which captures benchmark kernels through core (core imports
// this package, so those tests cannot live in it).
func ResourceLoopDAG(t *testing.T, lanes int, mix string) *sched.DAG {
	return loopDAG(t, resourceLoop(lanes, mix))
}

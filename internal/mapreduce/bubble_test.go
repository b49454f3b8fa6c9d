//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package mapreduce

import (
	"testing"
	"testing/synctest"
)

// TestBubbleExternalReduce runs TestExternalReduceMatchesPinnedBaseline's
// job in a synctest bubble: a task that waits for a container nothing will
// free, or a goroutine the cluster leaves behind at Close, fails it at once.
func TestBubbleExternalReduce(t *testing.T) {
	synctest.Run(func() { externalReduceMatchesPinnedBaseline(t) })
}

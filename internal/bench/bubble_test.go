//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"testing/synctest"

	"github.com/hamr-go/hamr/internal/apps"
)

// TestBubbleTable2Row runs Table 2's WordCount row at TinyScale under the
// virtual clock, both engines, in a synctest bubble: each side builds and
// closes its cluster inside it, so a hang or a goroutine left after Close
// fails the test at once. The answers are held to the reference, and the
// HAMR side's modeled time to its line in table2_tiny.golden.
func TestBubbleTable2Row(t *testing.T) {
	data, err := os.ReadFile(table2GoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	w := apps.Lookup("WordCount")
	var want string
	for _, line := range strings.Split(string(data), "\n") {
		if print, ok := strings.CutPrefix(line, string(w.Name)+": "); ok {
			want, _, _ = strings.Cut(print, " ")
		}
	}
	synctest.Run(func() {
		spec := DefaultSpec()
		spec.VClock = true
		row, err := NewHarness(spec, TinyScale()).RunRow(w, apps.Variant{})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("ns=%d", row.HAMR.Time); got != want {
			t.Errorf("%s HAMR in a bubble: %s, %s holds %s", w.Name, got, table2GoldenPath, want)
		}
	})
}

package main

import (
	"slices"
	"testing"

	"github.com/hamr-go/hamr/internal/apps"
)

// -app accepts exactly the workload table's rows, in table order.
func TestAppNamesAreTheTable(t *testing.T) {
	var want []string
	for _, w := range apps.Table {
		want = append(want, w.App)
	}
	if got := appNames(); !slices.Equal(got, want) {
		t.Fatalf("appNames() = %q, want %q", got, want)
	}
}

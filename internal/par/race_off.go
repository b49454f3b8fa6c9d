//go:build !race

package par

// poison leaves every slice to be cleared: only a race build poisons.
func poison(any) bool { return false }

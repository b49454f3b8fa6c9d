//go:build race

package par

// poison fills the pointer-free slices the engines recycle — bytes and
// sort index words — with 0xA5 bytes, and reports whether s was one.
func poison(s any) bool {
	switch s := s.(type) {
	case []byte:
		for i := range s {
			s[i] = 0xA5
		}
	case []uint32:
		for i := range s {
			s[i] = 0xA5A5A5A5
		}
	default:
		return false
	}
	return true
}

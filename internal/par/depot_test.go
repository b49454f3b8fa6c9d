package par

import "testing"

// TestDepotFilesOnlyHomeSets: Give files a set whose lists are home, under
// its key, and Take hands it out once; a set with an item still out is
// never filed.
func TestDepotFilesOnlyHomeSets(t *testing.T) {
	var d Depot[int, *List[[]byte]]
	if _, ok := d.Take(1); ok {
		t.Fatal("an empty depot handed out a set")
	}
	home, leaky := NewSlices[byte](8), NewSlices[byte](8)
	home.Put(home.Get())
	leaky.Get()
	d.Give(1, leaky, Buffers{"l": leaky.Stats})
	d.Give(1, home, Buffers{"l": home.Stats})
	if _, ok := d.Take(2); ok {
		t.Fatal("a set filed under 1 came out under 2")
	}
	if got, ok := d.Take(1); !ok || got != home {
		t.Fatalf("Take(1) = %p, %v; want the home set %p", got, ok, home)
	}
	if got, ok := d.Take(1); ok {
		t.Fatalf("Take(1) handed out %p again, or the leaky set", got)
	}
}

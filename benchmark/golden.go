package main

// goldenSeed is the seed the golden digests below were recorded at (with
// defaultSizes). At any other seed only HAMR == MR is checked.
const goldenSeed = 1

// goldenDigests pins each workload's output at goldenSeed: the multiset
// digest both engines must produce. Regenerate with
// `go run . -workload <name> -pairs 1` after a deliberate change to a
// generator or an application, and say why in the commit.
var goldenDigests = map[string]string{
	"wordcount":         "4000:5bff4508151917db",
	"histogram_ratings": "5:4305ca0250ada4e7",
	"kmeans":            "4:971c7230cc7374ff",
	"pagerank":          "6000:131d245023a4e542",
	"sort_spill":        "200000:ef9d084c71a83686",
}

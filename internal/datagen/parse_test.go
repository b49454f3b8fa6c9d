package datagen

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The parser and the generator as they were before records became slices,
// kept as the references the new ones are held to. The oracle in
// internal/apps shares ParseMovie with both engines, so a parser bug is
// invisible to the differential tests; it is not invisible to these.

// parseMovieMap is the map-building parser: strings.Split, one map insert
// per entry, a repeated user's last rating wins.
func parseMovieMap(line string) (id string, ratings map[int]float64, ok bool) {
	colon := strings.IndexByte(line, ':')
	if colon <= 0 {
		return "", nil, false
	}
	ratings = make(map[int]float64)
	body := line[colon+1:]
	if body == "" {
		return line[:colon], ratings, true
	}
	for _, ent := range strings.Split(body, ",") {
		us := strings.IndexByte(ent, '_')
		if us <= 1 || ent[0] != 'u' {
			return "", nil, false
		}
		uid, err := strconv.Atoi(ent[1:us])
		if err != nil {
			return "", nil, false
		}
		r, err := strconv.Atoi(ent[us+1:])
		if err != nil {
			return "", nil, false
		}
		ratings[uid] = float64(r)
	}
	return line[:colon], ratings, true
}

// moviesReference is the generator with a seen map per movie and fmt for
// every rating. The benchmark's golden digests are digests of its bytes.
func moviesReference(cfg MoviesConfig) []byte {
	cfg.FillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	userZipf := NewZipf(rng, cfg.Users, cfg.RatingSkew)
	profiles := make([][]float64, cfg.Clusters)
	for c := range profiles {
		profiles[c] = make([]float64, cfg.Users)
		for u := range profiles[c] {
			profiles[c][u] = 1 + 4*rng.Float64()
		}
	}
	var sb strings.Builder
	for m := 0; m < cfg.Movies; m++ {
		cluster := m % cfg.Clusters
		n := cfg.MinRatings
		if cfg.MaxRatings > cfg.MinRatings {
			n += rng.Intn(cfg.MaxRatings - cfg.MinRatings + 1)
		}
		fmt.Fprintf(&sb, "movie%06d", m)
		sb.WriteByte(':')
		seen := make(map[int]bool, n)
		wrote := 0
		for wrote < n {
			u := userZipf.Next()
			if seen[u] {
				u = rng.Intn(cfg.Users)
				if seen[u] {
					break
				}
			}
			seen[u] = true
			mean := profiles[cluster][u]
			r := int(math.Round(mean + rng.NormFloat64()*0.7))
			if r < 1 {
				r = 1
			}
			if r > 5 {
				r = 5
			}
			if wrote > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "u%d_%d", u, r)
			wrote++
		}
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

func TestMoviesMatchesReferenceGenerator(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, cfg := range []MoviesConfig{
			{Seed: seed, Movies: 400, Users: 150},
			// Dense: few users, so the second draw collides and movies
			// end early; fixed-length records as the kmeans workload has.
			{Seed: seed, Movies: 300, Users: 12, Clusters: 3, MinRatings: 9, MaxRatings: 9, RatingSkew: 1.4},
		} {
			if got, want := Movies(cfg), moviesReference(cfg); !bytes.Equal(got, want) {
				t.Errorf("Movies(%+v) differs from the reference generator (%d bytes, reference %d)", cfg, len(got), len(want))
			}
		}
	}
	for _, i := range []int{0, 7, 99999, 100000, 999999, 1234567} {
		if got, want := MovieID(i), fmt.Sprintf("movie%06d", i); got != want {
			t.Errorf("MovieID(%d) = %q, want %q", i, got, want)
		}
	}
}

// longMovieLine is a record past InlineRatings entries, users counting up
// from base, every fifth user a repeat of an earlier one.
func longMovieLine(base int) string {
	var sb strings.Builder
	sb.WriteString("movie000009:")
	for i := 0; i < 3*InlineRatings; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		u := base + i
		if i%5 == 4 {
			u = base + i/2
		}
		fmt.Fprintf(&sb, "u%d_%d", u, 1+i%5)
	}
	return sb.String()
}

func FuzzParseMovie(f *testing.F) {
	for _, line := range []string{
		"", ":", "movie1:", ":u1_5", "noseparator", "m1:x1_5", "m1:u1-5", "m1:u1_x", "m1:u_3",
		"movie000001:u7_4,u12_5,u3_1",
		"m:u1_2,u1_3", "m:u1_2,u2_5,u1_4,u2_1,u1_1", // repeated users
		"m:u1_2,", "m:,u1_2", "m:u1_2,,u2_3", "m:,",
		"m:u+1_+2,u-3_-4,u01_05", "m:u1_2_3", "m:u99999999999999999999_1", "m:u1_99999999999999999999",
		"m:u1_2:u3_4", "m\x00:u1_2", "m:u1_2\n", "m:u\uff11_2",
		// Digit runs either side of the in-place read's 18 digits, and
		// leading zeros.
		"m:u123456789012345678_3,u1234567890123456789_4,u12345678901234567890_5",
		"m:u1_123456789012345678,u2_1234567890123456789,u3_12345678901234567890",
		"m:u9223372036854775807_1,u9223372036854775808_2,u-9223372036854775808_3",
		"m:u000000000000000001_2,u0000000000000000001_3,u00000000000000000001_4,u001_0005,u1_007",
		"m:u_1", "m:u1__2", "m:u1_2_", "m:u1_", "m:u1", "m:u", "m:u1_2,u", "m:u1_2,u_",
		"m:u255_1,u256_2,u255_3,u256_4,u0_5,u0_1,u-1_2,u-1_3",
		// Long lines repeating users under 256, at and over 256, and both.
		longMovieLine(0), longMovieLine(256), longMovieLine(200),
		string(Movies(MoviesConfig{Seed: 2, Movies: 3, Users: 30})),
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		wantID, want, wantOK := parseMovieMap(line)
		rec, ok := ParseMovie(line)
		if ok != wantOK || rec.ID != wantID {
			t.Fatalf("ParseMovie(%q) = id %q, ok %v; the map parser: id %q, ok %v", line, rec.ID, ok, wantID, wantOK)
		}
		if len(rec.Ratings) != len(want) {
			t.Fatalf("ParseMovie(%q) holds %d ratings, the map parser %d users", line, len(rec.Ratings), len(want))
		}
		for _, r := range rec.Ratings {
			if w, in := want[r.User]; !in || w != r.Rating {
				t.Fatalf("ParseMovie(%q): user %d rated %v, the map parser says %v (present: %v)", line, r.User, r.Rating, w, in)
			}
		}
		if ok && !reflect.DeepEqual(rec.Vector(), want) {
			t.Fatalf("ParseMovie(%q).Vector() = %v, the map parser %v", line, rec.Vector(), want)
		}
		var visited []Rating
		if err := EachRating(line, func(u int, r float64) error {
			visited = append(visited, Rating{u, r})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(visited, rec.Ratings) {
			t.Fatalf("EachRating(%q) visited %v, ParseMovie holds %v", line, visited, rec.Ratings)
		}
	})
}

func FuzzEachField(f *testing.F) {
	for _, s := range []string{
		"", " ", "a", " a ", "w00001 w00002  w00003", "\ta\nb\vc\fd\re ", "a\x00b \x1f c\x7f",
		"ascii then caf\u00e9 au lait", "nel\u0085sep", "nbsp\u00a0sep", "ideographic\u3000space", "thin\u2009space en\u2000quad",
		"\u00a0lead", "trail\u3000", "a \u3000 b", "\xff", "a\xffb c", "bad \xc2 utf8", "cut\xe3\x80", "\x85 lone continuation", "a\xc2\x85b",
		string(Text(TextConfig{Seed: 4, Lines: 2})),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var got []string
		if err := EachField(s, func(w string) error {
			got = append(got, w)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := strings.Fields(s); !slices.Equal(got, want) {
			t.Fatalf("EachField(%q) = %q, strings.Fields %q", s, got, want)
		}
	})
}

// TestVisitorsStopAtFirstError: both visitors hand fn's error back and
// call it no further, on the ASCII path and on the strings.Fields one.
func TestVisitorsStopAtFirstError(t *testing.T) {
	stop := errors.New("stop")
	for _, s := range []string{"a b c", "\u00e9\u3000b c"} {
		calls := 0
		err := EachField(s, func(string) error { calls++; return stop })
		if err != stop || calls != 1 {
			t.Errorf("EachField(%q): %d calls, error %v", s, calls, err)
		}
	}
	calls := 0
	err := EachRating("m:u1_2,u2_3", func(int, float64) error { calls++; return stop })
	if err != stop || calls != 1 {
		t.Errorf("EachRating: %d calls, error %v", calls, err)
	}
}

var sinkRatings int

func BenchmarkParseMovie(b *testing.B) {
	lines := strings.Split(strings.TrimRight(string(Movies(MoviesConfig{Seed: 1, Movies: 1000, Users: 150})), "\n"), "\n")
	b.Run("record", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec, _ := ParseMovie(lines[i%len(lines)])
			sinkRatings += len(rec.Ratings)
		}
	})
	b.Run("visit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = EachRating(lines[i%len(lines)], func(int, float64) error { sinkRatings++; return nil })
		}
	})
	b.Run("map-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, ratings, _ := parseMovieMap(lines[i%len(lines)])
			sinkRatings += len(ratings)
		}
	})
}

func BenchmarkEachField(b *testing.B) {
	lines := strings.Split(strings.TrimRight(string(Text(TextConfig{Seed: 1, Lines: 1000})), "\n"), "\n")
	b.Run("visit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = EachField(lines[i%len(lines)], func(string) error { sinkRatings++; return nil })
		}
	})
	b.Run("strings.Fields", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkRatings += len(strings.Fields(lines[i%len(lines)]))
		}
	})
}

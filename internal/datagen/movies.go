package datagen

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// MoviesConfig controls PUMA-style movie data generation. Each line is
//
//	movie<ID>:u<user>_<rating>,u<user>_<rating>,...
//
// with integer ratings 1..5 — the record format of the PUMA K-Means /
// Classification / Histogram inputs. Movies are generated around K latent
// taste clusters so K-Means has real structure to find, and the per-movie
// rating count varies (popular movies get more ratings).
type MoviesConfig struct {
	Seed           int64
	Movies         int
	Users          int
	Clusters       int // latent clusters used to synthesize ratings
	MinRatings     int
	MaxRatings     int
	RatingSkew     float64 // Zipf exponent over users (who rates a lot)
	PopularitySkew float64 // Zipf exponent over rating-count distribution
}

// FillDefaults replaces zero fields.
func (c *MoviesConfig) FillDefaults() {
	if c.Movies <= 0 {
		c.Movies = 1000
	}
	if c.Users <= 0 {
		c.Users = 200
	}
	if c.Clusters <= 0 {
		c.Clusters = 4
	}
	if c.MinRatings <= 0 {
		c.MinRatings = 5
	}
	if c.MaxRatings <= 0 {
		c.MaxRatings = 30
	}
	if c.MaxRatings < c.MinRatings {
		c.MaxRatings = c.MinRatings
	}
	if c.RatingSkew <= 0 {
		c.RatingSkew = 0.8
	}
	if c.PopularitySkew <= 0 {
		c.PopularitySkew = 1.0
	}
}

// MovieID returns the i-th movie identifier, "movie" and i to six digits.
func MovieID(i int) string { return string(appendMovieID(nil, i)) }

func appendMovieID(dst []byte, i int) []byte {
	dst = append(dst, "movie"...)
	for w := 100000; w > 1 && i < w; w /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(i), 10)
}

// Movies generates the dataset as newline-separated records.
func Movies(cfg MoviesConfig) []byte {
	cfg.FillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	userZipf := NewZipf(rng, cfg.Users, cfg.RatingSkew)

	// Latent cluster profiles: each cluster has a preferred mean rating
	// per user block, so movies from the same cluster look similar.
	profiles := make([][]float64, cfg.Clusters)
	for c := range profiles {
		profiles[c] = make([]float64, cfg.Users)
		for u := range profiles[c] {
			profiles[c][u] = 1 + 4*rng.Float64()
		}
	}

	// rated[u] == m+1 marks user u as having rated movie m: one array for
	// the whole run, never cleared.
	rated := make([]int, cfg.Users)
	out := make([]byte, 0, cfg.Movies*(12+(cfg.MinRatings+cfg.MaxRatings)/2*7))
	for m := 0; m < cfg.Movies; m++ {
		cluster := m % cfg.Clusters
		n := cfg.MinRatings
		if cfg.MaxRatings > cfg.MinRatings {
			n += rng.Intn(cfg.MaxRatings - cfg.MinRatings + 1)
		}
		out = appendMovieID(out, m)
		out = append(out, ':')
		wrote := 0
		for wrote < n {
			u := userZipf.Next()
			if rated[u] == m+1 {
				u = rng.Intn(cfg.Users)
				if rated[u] == m+1 {
					break // dense movie; accept fewer ratings
				}
			}
			rated[u] = m + 1
			mean := profiles[cluster][u]
			r := int(math.Round(mean + rng.NormFloat64()*0.7))
			if r < 1 {
				r = 1
			}
			if r > 5 {
				r = 5
			}
			if wrote > 0 {
				out = append(out, ',')
			}
			out = append(out, 'u')
			out = strconv.AppendInt(out, int64(u), 10)
			out = append(out, '_', byte('0'+r))
			wrote++
		}
		out = append(out, '\n')
	}
	return out
}

// Rating is one user's rating of a movie.
type Rating struct {
	User   int
	Rating float64
}

// MovieRecord is one parsed movie line. Ratings holds one entry per user
// in the order the line first names them; a user the line repeats keeps
// the last rating given.
type MovieRecord struct {
	ID      string
	Ratings []Rating
}

// InlineRatings is how many ratings EachRating parses without touching the
// heap, the size of a ParseMovieInto buffer that does the same, and past
// which ParseMovieInto indexes users instead of scanning for a repeat.
const InlineRatings = 64

// fastDigits is the longest digit run ParseMovieInto reads itself: any run
// of at most this many digits fits an int. A longer run, a sign or any
// other byte goes to strconv.Atoi, whose answer, overflow included, is the
// parse's.
const fastDigits = 9 * (strconv.IntSize / 32)

// ParseMovieInto is the one parser: it returns the movie's ID and its
// ratings, held in buf's array when that has room and otherwise in one
// allocation sized from the comma count; ok is false for blank or
// malformed lines. A caller that keeps buf on its stack parses without
// touching the heap. The ID and the ratings come back apart: a caller that
// keeps the ID (a view of line) and not the ratings lets buf stay where it
// is, which a MovieRecord holding both would not.
//
// It reads the body once, left to right. An entry "u<digits>_<digits>"
// whose runs are 1 to fastDigits plain digits is read in place; any other
// entry is cut at its comma and its two fields handed to strconv.Atoi. A
// user under 256 is looked up in a 256-bit set of the users named so far,
// so only a repeat, or an id outside [0, 256), scans the ratings for an
// earlier entry, and past InlineRatings a map of users replaces the scan.
func ParseMovieInto(line string, buf []Rating) (id string, ratings []Rating, ok bool) {
	colon := strings.IndexByte(line, ':')
	if colon <= 0 {
		return "", nil, false
	}
	id = line[:colon]
	if colon == len(line)-1 {
		return id, nil, true
	}
	ratings = buf[:0]
	var seen [4]uint64          // users 0..255 named so far
	var slot map[int]int        // user -> index in ratings, for long lines only
	for i := colon + 1; ; i++ { // i: the entry's first byte
		// The fast path: 'u', a digit run ended by '_', a digit run ended
		// by ',' or the line's end.
		uid, r, j := 0, 0, i+1
		for ; j < len(line); j++ {
			d := line[j] - '0'
			if d > 9 {
				break
			}
			uid = uid*10 + int(d)
		}
		k := j + 1
		for ; k < len(line); k++ {
			d := line[k] - '0'
			if d > 9 {
				break
			}
			r = r*10 + int(d)
		}
		if i >= len(line) || line[i] != 'u' || uint(j-i-2) >= fastDigits || j == len(line) || line[j] != '_' ||
			uint(k-j-2) >= fastDigits || k < len(line) && line[k] != ',' {
			if uid, r, k, ok = parseEntry(line, i); !ok {
				return "", nil, false
			}
		}
		// A user named before keeps their place and takes the new rating.
		at := -1
		if b := uint(uid); b < 256 && seen[b/64]&(1<<(b%64)) == 0 {
			seen[b/64] |= 1 << (b % 64)
		} else if slot != nil || len(ratings) >= InlineRatings {
			if slot == nil {
				slot = make(map[int]int, 2*len(ratings))
				for n, e := range ratings {
					slot[e.User] = n
				}
			}
			if n, dup := slot[uid]; dup {
				at = n
			}
		} else {
			for n := range ratings {
				if ratings[n].User == uid {
					at = n
					break
				}
			}
		}
		if at >= 0 {
			ratings[at].Rating = float64(r)
		} else {
			if len(ratings) == cap(ratings) {
				grown := make([]Rating, len(ratings), len(ratings)+1+strings.Count(line[k:], ","))
				copy(grown, ratings)
				ratings = grown
			}
			if slot != nil {
				slot[uid] = len(ratings)
			}
			ratings = append(ratings, Rating{User: uid, Rating: float64(r)})
		}
		if k == len(line) {
			return id, ratings, true
		}
		i = k
	}
}

// parseEntry parses the entry that starts at line[i], up to the next comma
// or the line's end, with strconv.Atoi: "u", the user, "_" (the entry's
// first underscore) and the rating. end is where the entry stops.
func parseEntry(line string, i int) (uid, r, end int, ok bool) {
	end = len(line)
	if c := strings.IndexByte(line[i:], ','); c >= 0 {
		end = i + c
	}
	ent := line[i:end]
	us := strings.IndexByte(ent, '_')
	if us <= 1 || ent[0] != 'u' {
		return 0, 0, 0, false
	}
	uid, err := strconv.Atoi(ent[1:us])
	if err != nil {
		return 0, 0, 0, false
	}
	r, err = strconv.Atoi(ent[us+1:])
	if err != nil {
		return 0, 0, 0, false
	}
	return uid, r, end, true
}

// ParseMovie parses one movie line; it returns ok=false for blank or
// malformed lines.
func ParseMovie(line string) (MovieRecord, bool) {
	id, ratings, ok := ParseMovieInto(line, nil)
	if !ok {
		return MovieRecord{}, false
	}
	return MovieRecord{ID: id, Ratings: ratings}, true
}

// EachRating calls fn for every rating ParseMovie(line) would hold, in the
// same order, without building the record: a mapper that needs only the
// ratings allocates nothing. A line ParseMovie rejects has no ratings to
// visit. It stops at, and returns, fn's first error.
func EachRating(line string, fn func(user int, rating float64) error) error {
	var buf [InlineRatings]Rating
	_, ratings, _ := ParseMovieInto(line, buf[:0])
	for _, r := range ratings {
		if err := fn(r.User, r.Rating); err != nil {
			return err
		}
	}
	return nil
}

// Vector returns the ratings as a sparse user -> rating vector, the form a
// centroid has.
func (m MovieRecord) Vector() map[int]float64 {
	v := make(map[int]float64, len(m.Ratings))
	for _, r := range m.Ratings {
		v[r.User] = r.Rating
	}
	return v
}

// AvgRating returns a movie's mean rating (0 for no ratings).
func (m MovieRecord) AvgRating() float64 {
	if len(m.Ratings) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range m.Ratings {
		sum += r.Rating
	}
	return sum / float64(len(m.Ratings))
}

// DenseUsers bounds the users a Centroid holds in an array: a user id in
// [0, DenseUsers) is an index, any other id a map key. The workloads'
// movies name a few hundred users, so their centroids need no map.
const DenseUsers = 1 << 16

// Centroid is a sparse user -> rating vector prepared for scoring: its
// entries and their Euclidean norm, computed once when it is made, so a
// record is scored against it without walking it. The entries are held
// twice: as given, for Vector, and for scoring in an array indexed by user
// id up to the largest id under DenseUsers, with 0 for a user the centroid
// lacks, plus a map of the entries the array cannot hold (nil when there
// are none). The zero Centroid is empty and scores 0 against everything.
type Centroid struct {
	vec   map[int]float64
	dense []float64
	rest  map[int]float64
	norm  float64
}

// NewCentroid prepares v, which it keeps: the caller must not change v
// afterwards.
func NewCentroid(v map[int]float64) Centroid {
	c := Centroid{vec: v}
	var sq float64
	top := -1
	for u, r := range v {
		sq += r * r
		if u >= 0 && u < DenseUsers {
			top = max(top, u)
		} else {
			if c.rest == nil {
				c.rest = make(map[int]float64)
			}
			c.rest[u] = r
		}
	}
	c.norm = math.Sqrt(sq)
	if top >= 0 {
		c.dense = make([]float64, top+1)
		for u, r := range v {
			if u >= 0 && u <= top {
				c.dense[u] = r
			}
		}
	}
	return c
}

// Vector returns the centroid's user -> rating entries, which the caller
// must not change.
func (c Centroid) Vector() map[int]float64 { return c.vec }

// Cosine returns the cosine similarity of the movie's sparse rating vector
// with a centroid. With integer ratings every sum of squares is exact, so
// it equals the cosine that walks the centroid for its norm, to the bit;
// and a user the centroid lacks adds a finite rating times the array's 0,
// which is +0 or -0 and leaves the dot product as it was.
func (m MovieRecord) Cosine(c Centroid) float64 {
	var dot, nm float64
	for _, r := range m.Ratings {
		nm += r.Rating * r.Rating
		if uint(r.User) < uint(len(c.dense)) {
			dot += r.Rating * c.dense[r.User]
		} else if v, ok := c.rest[r.User]; ok {
			dot += r.Rating * v
		}
	}
	if nm == 0 || c.norm == 0 {
		return 0
	}
	return dot / (math.Sqrt(nm) * c.norm)
}

// InitialCentroids deterministically picks k centroids from the dataset
// (every (movies/k)-th record), the usual PUMA seeding. It walks the input
// once, line by line, keeping the lines that hold a record with ratings.
func InitialCentroids(data []byte, k int) []Centroid {
	if k <= 0 {
		return nil
	}
	var recs []string
	for s := string(data); s != ""; {
		l := s
		if nl := strings.IndexByte(s, '\n'); nl >= 0 {
			l, s = s[:nl], s[nl+1:]
		} else {
			s = ""
		}
		var buf [InlineRatings]Rating
		if _, ratings, ok := ParseMovieInto(l, buf[:0]); ok && len(ratings) > 0 {
			recs = append(recs, l)
		}
	}
	if len(recs) == 0 {
		return nil
	}
	cents := make([]Centroid, 0, k)
	step := len(recs) / k
	if step == 0 {
		step = 1
	}
	for i := 0; i < k && i*step < len(recs); i++ {
		rec, _ := ParseMovie(recs[i*step])
		cents = append(cents, NewCentroid(rec.Vector()))
	}
	return cents
}

package datagen

import (
	"fmt"
	"math/rand"
	"strings"
	"unicode/utf8"
)

// TextConfig controls Zipfian text generation (HiBench RandomTextWriter
// analogue): words are drawn from a synthetic vocabulary with Zipfian
// frequency, the distribution the paper's WordCount and NaiveBayes inputs
// follow.
type TextConfig struct {
	Seed         int64
	Vocabulary   int     // distinct words
	WordsPerLine int     // words per line
	Lines        int     // lines to generate
	Skew         float64 // Zipf exponent (1.0 ≈ natural language)
}

// FillDefaults replaces zero fields.
func (c *TextConfig) FillDefaults() {
	if c.Vocabulary <= 0 {
		c.Vocabulary = 1000
	}
	if c.WordsPerLine <= 0 {
		c.WordsPerLine = 10
	}
	if c.Lines <= 0 {
		c.Lines = 1000
	}
	if c.Skew <= 0 {
		c.Skew = 1.0
	}
}

// Word returns the k-th vocabulary word.
func Word(k int) string { return fmt.Sprintf("w%05d", k) }

// vocabulary returns the first n words, Word(0) to Word(n-1), built once
// per corpus instead of once per word drawn.
func vocabulary(n int) []string {
	words := make([]string, n)
	for k := range words {
		words[k] = Word(k)
	}
	return words
}

// Text generates the whole corpus as one byte slice of newline-separated
// lines.
func Text(cfg TextConfig) []byte {
	cfg.FillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	z := NewZipf(rng, cfg.Vocabulary, cfg.Skew)
	words := vocabulary(cfg.Vocabulary)
	out := make([]byte, 0, cfg.Lines*cfg.WordsPerLine*7)
	for l := 0; l < cfg.Lines; l++ {
		for w := 0; w < cfg.WordsPerLine; w++ {
			if w > 0 {
				out = append(out, ' ')
			}
			out = append(out, words[z.Next()]...)
		}
		out = append(out, '\n')
	}
	return out
}

// DocsConfig controls labeled-document generation for NaiveBayes training
// (the HiBench generator draws document words from a Zipfian distribution
// and assigns class labels).
type DocsConfig struct {
	Seed        int64
	Labels      int
	Vocabulary  int
	WordsPerDoc int
	Docs        int
	Skew        float64
}

// FillDefaults replaces zero fields.
func (c *DocsConfig) FillDefaults() {
	if c.Labels <= 0 {
		c.Labels = 4
	}
	if c.Vocabulary <= 0 {
		c.Vocabulary = 500
	}
	if c.WordsPerDoc <= 0 {
		c.WordsPerDoc = 20
	}
	if c.Docs <= 0 {
		c.Docs = 500
	}
	if c.Skew <= 0 {
		c.Skew = 1.0
	}
}

// Label returns the i-th class label.
func Label(i int) string { return fmt.Sprintf("class%02d", i) }

// Docs generates labeled documents, one per line: "label<TAB>w w w ...".
// Each label biases its word distribution by a per-label offset so the
// classes are actually separable.
func Docs(cfg DocsConfig) []byte {
	cfg.FillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	z := NewZipf(rng, cfg.Vocabulary, cfg.Skew)
	words := vocabulary(cfg.Vocabulary)
	labels := make([]string, cfg.Labels)
	for i := range labels {
		labels[i] = Label(i)
	}
	var out []byte
	for d := 0; d < cfg.Docs; d++ {
		label := rng.Intn(cfg.Labels)
		out = append(out, labels[label]...)
		out = append(out, '\t')
		for w := 0; w < cfg.WordsPerDoc; w++ {
			if w > 0 {
				out = append(out, ' ')
			}
			// Shift the Zipf draw by a label-specific offset.
			out = append(out, words[(z.Next()+label*37)%cfg.Vocabulary]...)
		}
		out = append(out, '\n')
	}
	return out
}

// EachField calls fn for each field of s, the fields and their order being
// exactly strings.Fields(s), without building the list: on ASCII nothing is
// allocated. From the first field that holds a byte outside ASCII on,
// Unicode decides what a space is and strings.Fields does the rest. It
// stops at, and returns, fn's first error.
func EachField(s string, fn func(field string) error) error {
	start := -1 // where the field being read began; -1 between fields
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= utf8.RuneSelf:
			if start < 0 {
				start = i
			}
			for _, f := range strings.Fields(s[start:]) {
				if err := fn(f); err != nil {
					return err
				}
			}
			return nil
		case c == ' ' || ('\t' <= c && c <= '\r'):
			if start >= 0 {
				if err := fn(s[start:i]); err != nil {
					return err
				}
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		return fn(s[start:])
	}
	return nil
}

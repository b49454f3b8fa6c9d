package hamr

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// designCite is a citation that names the design document: an optional
	// section number, then an optional quoted heading.
	designCite = regexp.MustCompile(`^DESIGN\.md(?:\s+§(\d+))?(?:\s+"([^"]+)")?`)
	// sectionCite is a section number and a quoted heading, with or without
	// the document's name before it.
	sectionCite = regexp.MustCompile(`^§(\d+)\s+"([^"]+)"`)
	// commentBreak joins a comment or a paragraph wrapped over lines.
	commentBreak = regexp.MustCompile(`\s*\n\s*(?:(?://|#)\s*)?`)
	headingLine  = regexp.MustCompile(`^#{2,6}\s+(?:(\d+)\.\s+)?(.+?)\s*$`)
)

// TestDesignCitationsResolve holds every DESIGN.md section number and
// heading that Go code, README.md or CI cites to a heading the document
// has: a renamed or renumbered heading fails here until its citations
// follow it.
func TestDesignCitationsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	// headings maps a heading's text to the number of the section it is
	// in; sections holds the numbered ones.
	headings, sections := map[string]string{}, map[string]bool{}
	section := ""
	for _, line := range strings.Split(string(design), "\n") {
		m := headingLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if m[1] != "" {
			section = m[1]
			sections[section] = true
		}
		headings[m[2]] = section
	}

	files := []string{"README.md", filepath.Join(".github", "workflows", "ci.yml")}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	check := func(at, sec, title string) {
		if sec != "" && !sections[sec] {
			t.Errorf("%s cites DESIGN.md §%s, which has no section %s", at, sec, sec)
		}
		if title == "" {
			return
		}
		in, ok := headings[title]
		switch {
		case !ok:
			t.Errorf("%s cites DESIGN.md %q, which is no heading there", at, title)
		case sec != "" && in != sec:
			t.Errorf("%s cites DESIGN.md §%s %q, which is in §%s", at, sec, title, in)
		}
	}
	cites := 0
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Only the text after each mark is read, joined over line breaks.
		text := string(data)
		for i := 0; i < len(text); i++ {
			if !strings.HasPrefix(text[i:], "DESIGN.md") && !strings.HasPrefix(text[i:], "§") {
				continue
			}
			after := commentBreak.ReplaceAllString(text[i:min(i+200, len(text))], " ")
			if m := designCite.FindStringSubmatch(after); m != nil && (m[1] != "" || m[2] != "") {
				check(path, m[1], m[2])
				cites++
			} else if m := sectionCite.FindStringSubmatch(after); m != nil && !citedAfterName(text, i) {
				check(path, m[1], m[2])
			}
		}
	}
	if cites == 0 {
		t.Fatal("found no DESIGN.md citation to check")
	}
}

// citedAfterName reports whether the section mark at text[i] follows the
// document's name, so its citation was checked from there.
func citedAfterName(text string, i int) bool {
	before := commentBreak.ReplaceAllString(text[max(0, i-40):i], " ")
	return strings.HasSuffix(strings.TrimSpace(before), "DESIGN.md")
}

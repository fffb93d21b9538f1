package hybridcc

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameExistingPaths fails when a document tells the reader to run
// or read a ./cmd, ./internal or ./examples path that is not a directory
// in this checkout, or names a .go or .txt file under cmd, internal or
// examples that is not there.  Everything from a "## History" heading down
// is exempt: it describes tools as of the commit that heading names.
func TestDocsNameExistingPaths(t *testing.T) {
	dir := regexp.MustCompile(`\./(cmd|internal|examples)/[A-Za-z0-9_-]+`)
	file := regexp.MustCompile(`(?:^|[^A-Za-z0-9_/.-])(?:\./)?((?:cmd|internal|examples)/[A-Za-z0-9_/.-]*\.(?:go|txt))\b`)
	for _, doc := range []string{
		"README.md",
		"EXPERIMENTS.md",
		".claude/skills/verify/SKILL.md",
		".github/workflows/ci.yml",
	} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		live, _, _ := strings.Cut(string(b), "\n## History")
		for _, p := range dir.FindAllString(live, -1) {
			if fi, err := os.Stat(p); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which is not a directory", doc, p)
			}
		}
		for _, m := range file.FindAllStringSubmatch(live, -1) {
			if fi, err := os.Stat(m[1]); err != nil || !fi.Mode().IsRegular() {
				t.Errorf("%s names %s, which is not a file", doc, m[1])
			}
		}
	}
}

package across

import (
	"os"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// checkedDocs are the navigational documents whose internal links and
// anchors must resolve; CI's docs job runs this test, so a renamed heading
// or moved file breaks the build instead of silently orphaning a link.
var checkedDocs = []string{"README.md", "ARCHITECTURE.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	mdLink  = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	mdFence = regexp.MustCompile("(?s)```.*?```")
	mdCmd   = regexp.MustCompile(`\./cmd/\w+`)
)

// TestMarkdownLinksResolve checks every relative [text](target) link in
// checkedDocs: the target file must exist, and a #fragment must match a
// heading slug (GitHub slugging rules) in the target document. Every
// ./cmd/<name> a document mentions, code fences included, must be a
// directory, so a documented command cannot name a binary that is gone.
func TestMarkdownLinksResolve(t *testing.T) {
	anchors := map[string]map[string]bool{}
	for _, doc := range checkedDocs {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		anchors[doc] = headingSlugs(string(body))
	}
	for _, doc := range checkedDocs {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range mdCmd.FindAllString(string(body), -1) {
			if fi, err := os.Stat(cmd); err != nil || !fi.IsDir() {
				t.Errorf("%s: %s is not a command in this repository", doc, cmd)
			}
		}
		text := mdFence.ReplaceAllString(string(body), "")
		for _, m := range mdLink.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			path, frag, _ := strings.Cut(target, "#")
			if path != "" {
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s: link target %q does not exist", doc, target)
					continue
				}
			}
			if frag == "" {
				continue
			}
			dest := path
			if dest == "" {
				dest = doc
			}
			destAnchors, ok := anchors[dest]
			if !ok {
				// Anchor into a file outside the checked set: existence of
				// the file is all we can assert.
				continue
			}
			if !destAnchors[frag] {
				t.Errorf("%s: anchor %q not found in %s", doc, "#"+frag, dest)
			}
		}
	}
}

// headingSlugs collects the GitHub anchor slugs of every markdown heading
// outside code fences.
func headingSlugs(body string) map[string]bool {
	slugs := map[string]bool{}
	for _, line := range strings.Split(mdFence.ReplaceAllString(body, ""), "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		text := strings.TrimSpace(strings.TrimLeft(line, "#"))
		slugs[githubSlug(text)] = true
	}
	return slugs
}

// githubSlug reproduces GitHub's heading-anchor slugging: lowercase, keep
// letters/digits/hyphens/underscores, spaces become hyphens, everything
// else is dropped.
func githubSlug(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-' || r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

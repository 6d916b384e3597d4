// Documentation link check: every relative markdown link in the root
// *.md files and docs/*.md must point at a file (or directory) that
// exists, and every `make <target>` the README and docs/*.md name must
// be a rule in the Makefile, so the architecture book and the
// store-format spec cannot silently rot as the tree moves. Runs under
// plain `go test ./...`, which is how CI fails on a dead doc link.
package nbhd

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links: [text](target). Reference-style
// links and autolinks are out of scope; the repo doesn't use them.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

func TestDocRelativeLinksResolve(t *testing.T) {
	var files []string
	for _, pattern := range []string{"*.md", "docs/*.md"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found; glob patterns are wrong")
	}

	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue // external; not checked offline
			case strings.HasPrefix(target, "#"):
				continue // intra-document anchor
			}
			// A relative target may carry an anchor: FILE.md#section.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: dead relative link %q (resolved %s): %v", file, m[1], resolved, err)
			}
		}
	}
}

// makeRule matches a rule's target at the start of a Makefile line; the
// ([^=]|$) tail skips ":=" variable assignments.
var makeRule = regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+)\s*:([^=]|$)`)

// makeInvocation matches "make <target>" opening a code line or a code
// span, including spans wrapped across a line break.
var makeInvocation = regexp.MustCompile("(?m)(?:^|`)make\\s+([a-z][a-z0-9_-]*)")

// TestDocMakeTargetsExist keeps the README and docs/*.md from naming a
// Make target that no longer exists. CHANGES.md and ROADMAP.md are
// history and may name deleted targets.
func TestDocMakeTargetsExist(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	rules := make(map[string]bool)
	for _, m := range makeRule.FindAllStringSubmatch(string(makefile), -1) {
		rules[m[1]] = true
	}
	if !rules["check"] {
		t.Fatal("Makefile rule pattern found no `check` rule; the pattern is wrong")
	}

	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range append([]string{"README.md"}, docs...) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range makeInvocation.FindAllStringSubmatch(string(data), -1) {
			if !rules[m[1]] {
				t.Errorf("%s: names `make %s`, which is not a rule in the Makefile", file, m[1])
			}
		}
	}
}

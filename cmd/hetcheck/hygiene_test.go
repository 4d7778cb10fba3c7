package main

// The repository's documentation hygiene, which TestRepoIsClean holds the
// module to on every go test run: every Go package carries a package
// comment, every relative Markdown link resolves, and CHANGES.md entries
// stay within their cap.

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// checkPackageDocs walks every directory containing Go files and reports the
// packages whose files all lack a package comment. Test files can carry the
// comment too (doc.go is just a convention), but an external _test package
// does not document the package under test.
func checkPackageDocs(root string) ([]string, error) {
	perDir := map[string]bool{} // dir -> has a package comment
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return skipDir(root, path, d)
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		if _, seen := perDir[dir]; !seen {
			perDir[dir] = false
			dirs = append(dirs, dir)
		}
		if perDir[dir] {
			return nil
		}
		// Parse the file's header only: cheap, and the package comment is
		// by definition attached to the package clause.
		fset := token.NewFileSet()
		f, perr := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if perr != nil {
			return fmt.Errorf("parsing %s: %w", path, perr)
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			return nil
		}
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			perDir[dir] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, dir := range dirs {
		if !perDir[dir] {
			findings = append(findings, fmt.Sprintf("%s: package has no package comment", dir))
		}
	}
	return findings, nil
}

// skipDir prunes hidden, testdata, and vendor directories from a walk. The
// walk root itself is never pruned, whatever it is named — a root of ".."
// (or any dot-prefixed path) must still be scanned, not silently skipped.
func skipDir(root, path string, d fs.DirEntry) error {
	if path == root {
		return nil
	}
	name := d.Name()
	if strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor" {
		return filepath.SkipDir
	}
	return nil
}

// linkRe matches inline Markdown links and images: [text](target). Reference
// definitions and autolinks are out of scope — the repo does not use them.
var linkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// checkMarkdownLinks reports relative links in *.md files whose target does
// not exist on disk. External schemes and pure in-page anchors are skipped;
// a relative link's own #anchor suffix is stripped before the check.
func checkMarkdownLinks(root string) ([]string, error) {
	var findings []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return skipDir(root, path, d)
		}
		if !strings.HasSuffix(strings.ToLower(path), ".md") {
			return nil
		}
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		for _, m := range linkRe.FindAllStringSubmatch(stripCodeBlocks(string(raw)), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			if _, serr := os.Stat(resolved); serr != nil {
				findings = append(findings, fmt.Sprintf("%s: broken link %q (%s does not exist)", path, m[1], resolved))
			}
		}
		return nil
	})
	return findings, err
}

// The changelog cap: an entry is the text from a line starting "- PR <n>:" up
// to the next such line, and from capFromPR on it may be maxEntryBytes long.
const (
	capFromPR     = 24
	maxEntryBytes = 1536
)

var entryRe = regexp.MustCompile(`(?m)^- PR (\d+):`)

// checkChangelog reports the CHANGES.md entries over the cap.
func checkChangelog(text string) []string {
	var findings []string
	starts := entryRe.FindAllStringSubmatchIndex(text, -1)
	for i, m := range starts {
		end := len(text)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		pr, _ := strconv.Atoi(text[m[2]:m[3]])
		if size := len(strings.TrimRight(text[m[0]:end], "\n")); pr >= capFromPR && size > maxEntryBytes {
			findings = append(findings, fmt.Sprintf("CHANGES.md: entry for PR %d is %d bytes, over the %d-byte cap", pr, size, maxEntryBytes))
		}
	}
	return findings
}

// stripCodeBlocks blanks fenced code blocks and inline code spans so link
// syntax inside examples is not checked.
func stripCodeBlocks(s string) string {
	var out strings.Builder
	inFence := false
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			out.WriteString("\n")
			continue
		}
		if inFence {
			out.WriteString("\n")
			continue
		}
		// Blank inline code spans on the line.
		for {
			i := strings.IndexByte(line, '`')
			if i < 0 {
				break
			}
			j := strings.IndexByte(line[i+1:], '`')
			if j < 0 {
				break
			}
			line = line[:i] + strings.Repeat(" ", j+2) + line[i+1+j+1:]
		}
		out.WriteString(line)
		out.WriteString("\n")
	}
	return out.String()
}

package repolint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func scaffold(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for path, content := range files {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// targets flattens ExtractLinks output for easy comparison.
func targets(refs []LinkRef) []string {
	var out []string
	for _, r := range refs {
		out = append(out, r.Target)
	}
	return out
}

func TestExtractLinksBasics(t *testing.T) {
	refs := ExtractLinks("see [design](DESIGN.md) and ![diagram](img/arch.png)\n")
	got := targets(refs)
	want := []string{"DESIGN.md", "img/arch.png"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("targets = %v, want %v", got, want)
	}
	if refs[0].Line != 1 {
		t.Errorf("line = %d, want 1", refs[0].Line)
	}
}

func TestExtractLinksSkipsFencedBlocks(t *testing.T) {
	content := strings.Join([]string{
		"[real](A.md)",
		"```",
		"[ignored](GONE.md)",
		"```",
		"```go",
		"x := \"[also ignored](GONE2.md)\"",
		"```",
		"[after](B.md)",
	}, "\n")
	got := targets(ExtractLinks(content))
	want := []string{"A.md", "B.md"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("targets = %v, want %v", got, want)
	}
}

func TestExtractLinksSkipsIndentedFenceMarkers(t *testing.T) {
	// A fence opener indented inside a list item still toggles the fence.
	content := strings.Join([]string{
		"- item:",
		"  ```",
		"  [ignored](GONE.md)",
		"  ```",
		"[real](A.md)",
	}, "\n")
	got := targets(ExtractLinks(content))
	if len(got) != 1 || got[0] != "A.md" {
		t.Errorf("targets = %v, want [A.md]", got)
	}
}

func TestExtractLinksSkipsInlineCode(t *testing.T) {
	content := "run `mecstat [a](GONE.md)` then read [real](A.md) and `more [x](GONE2.md) code`\n"
	got := targets(ExtractLinks(content))
	if len(got) != 1 || got[0] != "A.md" {
		t.Errorf("targets = %v, want [A.md]", got)
	}
}

func TestExtractLinksSkipsAbsoluteURLs(t *testing.T) {
	content := "[web](https://example.com/x.md) [plain](http://example.com) [mail](mailto:a@b.c) [rel](A.md)\n"
	got := targets(ExtractLinks(content))
	if len(got) != 1 || got[0] != "A.md" {
		t.Errorf("targets = %v, want [A.md]", got)
	}
}

func TestExtractLinksKeepsAnchors(t *testing.T) {
	content := "[sec](DESIGN.md#metrics) [frag](#local)\n"
	got := targets(ExtractLinks(content))
	want := []string{"DESIGN.md#metrics", "#local"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("targets = %v, want %v", got, want)
	}
}

func TestExtractLinksWithTitle(t *testing.T) {
	content := `[titled](A.md "The design") stays a link` + "\n"
	got := targets(ExtractLinks(content))
	if len(got) != 1 || got[0] != "A.md" {
		t.Errorf("targets = %v, want [A.md]", got)
	}
}

func TestExtractLinksMultiplePerLine(t *testing.T) {
	got := targets(ExtractLinks("[a](A.md) mid [b](B.md) end [c](C.md)\n"))
	want := []string{"A.md", "B.md", "C.md"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("targets = %v, want %v", got, want)
	}
}

func TestCheckLinksAnchorsResolveAgainstFile(t *testing.T) {
	root := scaffold(t, map[string]string{
		"README.md": "[ok](DESIGN.md#sec) [frag](#here) [broken](GONE.md#sec)\n",
		"DESIGN.md": "content\n",
	})
	violations, err := CheckLinks(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 || !strings.Contains(violations[0], "GONE.md#sec") {
		t.Errorf("violations = %v, want one GONE.md#sec", violations)
	}
}

func TestCheckLinksResolvesRelativeToContainingFile(t *testing.T) {
	root := scaffold(t, map[string]string{
		"README.md":    "[down](docs/DEEP.md)\n",
		"docs/DEEP.md": "[up](../README.md) [sib](GONE.md)\n",
	})
	violations, err := CheckLinks(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 || !strings.Contains(violations[0], "docs/DEEP.md:1") {
		t.Errorf("violations = %v, want one at docs/DEEP.md:1", violations)
	}
}

func TestCheckDocsCleanAndViolations(t *testing.T) {
	root := scaffold(t, map[string]string{
		"internal/alpha/doc.go":      "// Package alpha does things.\npackage alpha\n",
		"internal/alpha/alpha.go":    "package alpha\n",
		"internal/beta/beta.go":      "package beta\n",
		"internal/gamma/doc.go":      "// gamma lacks the canonical opening.\npackage gamma\n",
		"internal/gamma/gamma.go":    "package gamma\n",
		"internal/delta/testdata/md": "fixtures only, no Go files\n",
		// Go files under testdata are analyzer fixtures, not packages.
		"internal/alpha/testdata/src/fix/fix.go": "package fix\n",
	})
	violations, err := CheckDocs(root)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(violations, "\n")
	if !strings.Contains(joined, "internal/beta: missing doc.go") {
		t.Errorf("missing-doc violation absent:\n%s", joined)
	}
	if !strings.Contains(joined, "internal/gamma/doc.go: must start with") {
		t.Errorf("wrong-opening violation absent:\n%s", joined)
	}
	if len(violations) != 2 {
		t.Errorf("violations = %v, want exactly 2", violations)
	}
}

// check runs one check on root and fails the test on an error.
func check(t *testing.T, fn func(string) ([]string, error), root string) string {
	t.Helper()
	violations, err := fn(root)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(violations, "\n")
}

func TestDocCheckPasses(t *testing.T) {
	root := scaffold(t, map[string]string{
		"internal/alpha/doc.go":   "// Package alpha does things.\npackage alpha\n",
		"internal/alpha/alpha.go": "package alpha\n",
	})
	if v := check(t, CheckDocs, root); v != "" {
		t.Fatalf("clean repo failed doc check:\n%s", v)
	}
}

func TestDocCheckMissingDocFile(t *testing.T) {
	root := scaffold(t, map[string]string{
		"internal/alpha/alpha.go": "// Package alpha does things.\npackage alpha\n",
	})
	if v := check(t, CheckDocs, root); !strings.Contains(v, "missing doc.go") {
		t.Errorf("violation not reported:\n%s", v)
	}
}

func TestDocCheckWrongOpening(t *testing.T) {
	root := scaffold(t, map[string]string{
		"internal/alpha/doc.go":   "// alpha does things.\npackage alpha\n",
		"internal/alpha/alpha.go": "package alpha\n",
	})
	if v := check(t, CheckDocs, root); v == "" {
		t.Fatal("doc.go without canonical package sentence should fail")
	}
}

func TestDocCheckIgnoresGoFreeDirs(t *testing.T) {
	root := scaffold(t, map[string]string{
		"internal/alpha/doc.go":        "// Package alpha does things.\npackage alpha\n",
		"internal/alpha/alpha.go":      "package alpha\n",
		"internal/alpha/testdata/x.md": "fixtures only\n",
	})
	if v := check(t, CheckDocs, root); v != "" {
		t.Fatalf("testdata dir should not need a doc.go:\n%s", v)
	}
}

func TestLinkCheckPasses(t *testing.T) {
	root := scaffold(t, map[string]string{
		"README.md": strings.Join([]string{
			"[design](DESIGN.md) and [obs](docs/OBSERVABILITY.md#metrics)",
			"[web](https://example.com) and [mail](mailto:x@example.com)",
			"[frag](#section) stays internal",
			"```",
			"[broken-in-fence](nope.md)",
			"```",
			"and `[broken-in-code](missing.md)` spans",
		}, "\n"),
		"DESIGN.md":               "[back](README.md)\n",
		"docs/OBSERVABILITY.md":   "[up](../README.md)\n",
		"internal/alpha/doc.go":   "// Package alpha does things.\npackage alpha\n",
		"internal/alpha/alpha.go": "package alpha\n",
	})
	if v := check(t, CheckLinks, root); v != "" {
		t.Fatalf("clean links failed:\n%s", v)
	}
}

func TestLinkCheckBrokenLink(t *testing.T) {
	root := scaffold(t, map[string]string{
		"README.md": "see [gone](docs/GONE.md)\nand [fine](OK.md)\n",
		"OK.md":     "ok\n",
	})
	if v := check(t, CheckLinks, root); !strings.Contains(v, "README.md:1") || !strings.Contains(v, "docs/GONE.md") {
		t.Errorf("violation not located:\n%s", v)
	}
}

func TestLinkCheckMultipleLinksPerLine(t *testing.T) {
	root := scaffold(t, map[string]string{
		"README.md": "[a](A.md) [b](B.md)\n",
		"A.md":      "a\n",
	})
	if v := check(t, CheckLinks, root); !strings.Contains(v, "B.md") {
		t.Errorf("missing violation for second link:\n%s", v)
	}
}

// TestRealRepoIsClean runs both checks against the actual repository the
// test binary lives in, so the hygiene gate and the tree cannot drift.
func TestRealRepoIsClean(t *testing.T) {
	for _, fn := range []func(string) ([]string, error){CheckDocs, CheckLinks} {
		if v := check(t, fn, "../.."); v != "" {
			t.Errorf("repository not clean:\n%s", v)
		}
	}
}

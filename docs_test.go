package bonsai_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	docCmd    = regexp.MustCompile(`\./cmd/([A-Za-z0-9_-]+)`)
	docLink   = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	docBench  = regexp.MustCompile(`\bBenchmark[A-Z][A-Za-z0-9_]*`)
	docOption = regexp.MustCompile(`\bbonsai\.(With[A-Za-z0-9]+)`)
	docTest   = regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z][A-Za-z0-9_]*`)
	docPkg    = regexp.MustCompile(`\binternal/([a-z0-9_]+)`)
	// A metric name, or a family of them written with a trailing "*".
	docMetric = regexp.MustCompile(`\bbonsaid?_[a-z0-9_]+\*?`)
	regMetric = regexp.MustCompile(`"(bonsaid?_[a-z0-9_]+)"`)
)

// registeredMetrics returns the metric names internal/server/metrics.go
// registers, the only place the daemon registers any.
func registeredMetrics(t *testing.T) []string {
	src, err := os.ReadFile("internal/server/metrics.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range regMetric.FindAllSubmatch(src, -1) {
		names = append(names, string(m[1]))
	}
	if len(names) == 0 {
		t.Fatal("internal/server/metrics.go registers no metric: has the registration moved?")
	}
	return names
}

// declaredFuncs returns the top-level functions of the given files whose
// names match pattern.
func declaredFuncs(t *testing.T, files []string, pattern string) []string {
	re := regexp.MustCompile(`(?m)^func (` + pattern + `)\(`)
	var names []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range re.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
	}
	return names
}

// TestDocsCiteWhatExists: the living documents may only name commands,
// files, benchmarks, options and metrics the tree has, and README's metric
// catalog names every metric the daemon registers. README and the verify
// skill, which tell a reader what to run, may also only name tests, fuzz
// targets and internal/ packages that exist; EXPERIMENTS.md and
// docs/audit.md are records and name tests and packages that were deleted.
// CHANGES.md and ROADMAP.md are history and are not scanned.
func TestDocsCiteWhatExists(t *testing.T) {
	docs, _ := filepath.Glob("docs/*.md")
	docs = append(docs, "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")

	var testFiles, rootFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case strings.HasSuffix(path, "_test.go"):
			testFiles = append(testFiles, path)
		case strings.HasSuffix(path, ".go") && filepath.Dir(path) == ".":
			rootFiles = append(rootFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	benchmarks := declaredFuncs(t, testFiles, `Benchmark\w+`)
	tests := declaredFuncs(t, testFiles, `(?:Test|Fuzz)\w+`)
	options := declaredFuncs(t, rootFiles, `With\w+`)
	metrics := registeredMetrics(t)

	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, m := range docCmd.FindAllStringSubmatch(text, -1) {
			if st, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !st.IsDir() {
				t.Errorf("%s: %s is not a directory", doc, m[0])
			}
		}
		for _, m := range docLink.FindAllStringSubmatch(text, -1) {
			target, _, _ := strings.Cut(m[1], "#")
			if target == "" || strings.Contains(target, ":") {
				continue // an anchor in this file, or a URL
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(doc), target)); err != nil {
				t.Errorf("%s: link target %s is missing", doc, m[1])
			}
		}
		for _, cited := range docBench.FindAllString(text, -1) {
			if !slices.ContainsFunc(benchmarks, func(n string) bool { return strings.HasPrefix(n, cited) }) {
				t.Errorf("%s: no benchmark function starts with %s", doc, cited)
			}
		}
		if doc == "README.md" || doc == ".claude/skills/verify/SKILL.md" {
			for _, cited := range docTest.FindAllString(text, -1) {
				if !slices.ContainsFunc(tests, func(n string) bool { return strings.HasPrefix(n, cited) }) {
					t.Errorf("%s: no test or fuzz function starts with %s", doc, cited)
				}
			}
			for _, m := range docPkg.FindAllStringSubmatch(text, -1) {
				if st, err := os.Stat(filepath.Join("internal", m[1])); err != nil || !st.IsDir() {
					t.Errorf("%s: %s is not a directory", doc, m[0])
				}
			}
		}
		for _, m := range docOption.FindAllStringSubmatch(text, -1) {
			if !slices.Contains(options, m[1]) {
				t.Errorf("%s: the bonsai package defines no %s", doc, m[1])
			}
		}
		cited := docMetric.FindAllString(text, -1)
		for _, name := range cited {
			if family, ok := strings.CutSuffix(name, "*"); ok {
				if !slices.ContainsFunc(metrics, func(n string) bool { return strings.HasPrefix(n, family) }) {
					t.Errorf("%s: no registered metric starts with %s", doc, family)
				}
			} else if !slices.Contains(metrics, name) {
				t.Errorf("%s: internal/server/metrics.go registers no %s", doc, name)
			}
		}
		if doc == "README.md" {
			for _, name := range metrics {
				if !slices.Contains(cited, name) {
					t.Errorf("README.md: the metrics catalog lacks %s", name)
				}
			}
		}
	}
}

package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// sharedLoader caches stdlib type-checking across all tests in this
// package (the source importer pays for math/rand, time, etc. once).
var sharedLoader = NewLoader()

func loadFixture(t *testing.T, dir string) *Package {
	t.Helper()
	pkg, err := sharedLoader.LoadDir(filepath.Join("testdata", "src", dir), "fixture/"+dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	return pkg
}

var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// wantsOf extracts `// want "substr"` expectations as "file:line" ->
// substrings. Quotes inside the expectation are written as \".
func wantsOf(t *testing.T, pkg *Package) map[string][]string {
	t.Helper()
	wants := make(map[string][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				wants[key] = append(wants[key], strings.ReplaceAll(m[1], `\"`, `"`))
			}
		}
	}
	return wants
}

// checkFixture runs the analyzer over the fixture (scopes ignored, so
// testdata paths work) and requires an exact match between findings
// and want comments — including that every //lint:ignore in the
// fixture suppresses something, since unused ignores are findings.
func checkFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	pkg := loadFixture(t, dir)
	diags := RunUnfiltered(pkg, []*Analyzer{a})
	wants := wantsOf(t, pkg)
	matched := make(map[string]int)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.File), d.Line)
		found := false
		for _, w := range wants[key] {
			if strings.Contains(d.Message, w) {
				found = true
				matched[key]++
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding %s:%d: %s (%s)", filepath.Base(d.File), d.Line, d.Message, d.Rule)
		}
	}
	for key, ws := range wants {
		if matched[key] < len(ws) {
			t.Errorf("missing finding at %s: want %q, matched %d of %d", key, ws, matched[key], len(ws))
		}
	}
}

func TestMaporderFixture(t *testing.T)   { checkFixture(t, AnalyzerMaporder, "maporder") }
func TestFloateqFixture(t *testing.T)    { checkFixture(t, AnalyzerFloateq, "floateq") }
func TestGlobalrandFixture(t *testing.T) { checkFixture(t, AnalyzerGlobalrand, "globalrand") }
func TestAtomicfieldFixture(t *testing.T) {
	checkFixture(t, AnalyzerAtomicfield, "atomicfield")
}
func TestTimenowFixture(t *testing.T)   { checkFixture(t, AnalyzerTimenow, "timenow") }
func TestCtxflowFixture(t *testing.T)   { checkFixture(t, AnalyzerCtxflow, "ctxflow") }
func TestErrflowFixture(t *testing.T)   { checkFixture(t, AnalyzerErrflow, "errflow") }
func TestLockguardFixture(t *testing.T) { checkFixture(t, AnalyzerLockguard, "lockguard") }

// TestTimenowMainExempt pins the package-main exemption: the same
// time.Now call that fails in a library package passes in a command.
func TestTimenowMainExempt(t *testing.T) {
	checkFixture(t, AnalyzerTimenow, "timenow_main")
}

// TestCtxflowFacadeExempt pins the root-facade exemption: the
// Background/TODO mints that fail in a library package pass in package
// abw, while a dropped ctx is still a finding there.
func TestCtxflowFacadeExempt(t *testing.T) {
	checkFixture(t, AnalyzerCtxflow, "ctxflow_facade")
}

// TestAnalyzersRegistry pins the registry contract: sorted by name,
// unique, every rule documented and runnable.
func TestAnalyzersRegistry(t *testing.T) {
	as := Analyzers()
	if len(as) < 5 {
		t.Fatalf("want at least 5 analyzers, got %d", len(as))
	}
	for i, a := range as {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %d incomplete: %+v", i, a)
		}
		if i > 0 && as[i-1].Name >= a.Name {
			t.Errorf("analyzers out of order: %q >= %q", as[i-1].Name, a.Name)
		}
	}
}

package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden tests: each analyzer against its fixture package, which is
// named after it.

func TestRawCas(t *testing.T)       { RunGolden(t, RawCas, "rawcas") }
func TestFenceOrder(t *testing.T)   { RunGolden(t, FenceOrder, "fenceorder") }
func TestRoPurity(t *testing.T)     { RunGolden(t, RoPurity, "ropurity") }
func TestPackedAccess(t *testing.T) { RunGolden(t, PackedAccess, "packedaccess") }

// TestAnalyzersHaveFixtures is the meta-test: every analyzer registered
// in All() must ship a golden fixture (a testdata package named after
// it, containing at least one want assertion), and cmd/persistlint must
// register the suite through All() so a new analyzer cannot land
// half-wired.
func TestAnalyzersHaveFixtures(t *testing.T) {
	for _, a := range All() {
		dir := filepath.Join("testdata", "src", a.Name)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Errorf("analyzer %s has no golden fixture at %s: %v", a.Name, dir, err)
			continue
		}
		haveWant := false
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			src, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(src), "// want ") {
				haveWant = true
			}
		}
		if !haveWant {
			t.Errorf("analyzer %s: fixture %s has no `// want` assertion — the golden test would pass vacuously", a.Name, dir)
		}
	}

	main, err := os.ReadFile(filepath.Join("..", "..", "cmd", "persistlint", "main.go"))
	if err != nil {
		t.Fatalf("reading cmd/persistlint: %v", err)
	}
	if !strings.Contains(string(main), "lint.All()") {
		t.Error("cmd/persistlint does not register the suite via lint.All(): analyzers added to All() would not run under make lint")
	}
}

// TestIgnoreHygiene pins the //lint:ignore contract on the
// lintdirective fixture: a justification is mandatory, the analyzer
// list must name real analyzers, and neither failure mode suppresses
// the underlying finding.
func TestIgnoreHygiene(t *testing.T) {
	pkg, err := LoadGOPATHDir("testdata/src", "lintdirective")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkg, All())
	if err != nil {
		t.Fatal(err)
	}

	var rawcas, directive int
	var sawMissing, sawUnknown bool
	for _, d := range diags {
		switch d.Analyzer {
		case "rawcas":
			rawcas++
		case "lint-directive":
			directive++
			if strings.Contains(d.Message, "written justification") {
				sawMissing = true
			}
			if strings.Contains(d.Message, `unknown analyzer "nosuchanalyzer"`) {
				sawUnknown = true
			}
		default:
			t.Errorf("unexpected analyzer %q: %s", d.Analyzer, d)
		}
	}
	// missingJustification and unknownAnalyzer keep their findings (the
	// broken ignores suppress nothing); properlyIgnored is clean.
	if rawcas != 2 {
		t.Errorf("rawcas findings = %d, want 2 (broken ignores must not suppress):\n%s", rawcas, FormatDiagnostics(diags))
	}
	if directive != 2 || !sawMissing || !sawUnknown {
		t.Errorf("lint-directive findings = %d (missing-justification seen: %v, unknown-analyzer seen: %v), want both:\n%s",
			directive, sawMissing, sawUnknown, FormatDiagnostics(diags))
	}
}

// TestPersistlintCleanOverTree is the self-check: the suite runs over
// this repository's own module and must come back clean — every real
// finding is either fixed or carries a justified ignore. This is the
// same bar CI holds via `make lint`.
func TestPersistlintCleanOverTree(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list -export over the whole module")
	}
	pkgs, err := LoadModule("../..")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, pkg := range pkgs {
		diags, err := RunAnalyzers(pkg, All())
		if err != nil {
			t.Errorf("%s: %v", pkg.Types.Path(), err)
			continue
		}
		if len(diags) > 0 {
			t.Errorf("%s:\n%s", pkg.Types.Path(), FormatDiagnostics(diags))
		}
	}
}

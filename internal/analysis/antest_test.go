package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// The fixture harness mirrors x/tools' analysistest expectation format:
// a fixture source line carrying
//
//	// want "regex" ["regex" ...]
//
// expects one diagnostic per quoted regex. The comment matches
// diagnostics on its own line, or — for whole-line want comments above
// a multi-line construct (and for the "lint" meta-finding, which
// anchors on the suppression comment itself) — on the line below.
var (
	wantRe    = regexp.MustCompile(`//\s*want\s+(".*)$`)
	wantArgRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
)

type wantDiag struct {
	line    int
	re      *regexp.Regexp
	matched bool
}

// fixtureLoader loads one testdata package under a synthetic import
// path (the path is part of the test: ctxflow and frameproto scope
// themselves by path segment).
func fixtureLoader(t *testing.T, fixture, importPath string) *Package {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", fixture), importPath)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// runFixture runs one analyzer over one fixture package (through Run,
// so the suppression machinery is in the loop) and compares the
// surviving diagnostics against the fixture's want comments.
func runFixture(t *testing.T, a *Analyzer, fixture, importPath string) {
	t.Helper()
	pkg := fixtureLoader(t, fixture, importPath)
	diags, err := Run([]*Analyzer{a}, []*Package{pkg})
	if err != nil {
		t.Fatal(err)
	}

	var wants []*wantDiag
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				args := wantArgRe.FindAllStringSubmatch(m[1], -1)
				if len(args) == 0 {
					t.Fatalf("%s:%d: want comment with no quoted pattern", fixture, line)
				}
				for _, qm := range args {
					re, err := regexp.Compile(qm[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", fixture, line, qm[1], err)
					}
					wants = append(wants, &wantDiag{line: line, re: re})
				}
			}
		}
	}

	match := func(d Diagnostic, offset int) bool {
		for _, w := range wants {
			if w.matched || w.line+offset != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				return true
			}
		}
		return false
	}
	var leftover []Diagnostic
	for _, d := range diags {
		if !match(d, 0) {
			leftover = append(leftover, d)
		}
	}
	for _, d := range leftover {
		if !match(d, 1) {
			t.Errorf("unexpected diagnostic at %s:%d: %s [%s]",
				filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message, d.Analyzer)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: no diagnostic at line %d matching %q", fixture, w.line, w.re)
		}
	}
}

func TestDeterminismAnalyzer(t *testing.T) {
	runFixture(t, DeterminismAnalyzer, "det", "fixture/det")
}

func TestDeterminismUnannotated(t *testing.T) {
	runFixture(t, DeterminismAnalyzer, "detplain", "fixture/detplain")
}

func TestCryptoHygieneAnalyzer(t *testing.T) {
	runFixture(t, CryptoHygieneAnalyzer, "crypto", "fixture/crypto")
}

func TestCtxFlowAnalyzerCovered(t *testing.T) {
	runFixture(t, CtxFlowAnalyzer, "ctxpool", "fixture/pool")
}

func TestCtxFlowAnalyzerUncovered(t *testing.T) {
	runFixture(t, CtxFlowAnalyzer, "ctxutil", "fixture/util")
}

func TestLockDisciplineAnalyzer(t *testing.T) {
	runFixture(t, LockDisciplineAnalyzer, "lock", "fixture/lock")
}

func TestFrameProtoAnalyzer(t *testing.T) {
	runFixture(t, FrameProtoAnalyzer, "frameclient", "fixture/client")
}

func TestFrameProtoAllowedPackage(t *testing.T) {
	runFixture(t, FrameProtoAnalyzer, "frameproto", "fixture/wire")
}

// TestFrameProtoRelayPackages: the OT layer and the gateway write frames
// through internal/wire like everyone else; a raw conn write there is a
// finding.
func TestFrameProtoRelayPackages(t *testing.T) {
	for _, path := range []string{"fixture/ot", "fixture/gateway", "fixture/proto"} {
		runFixture(t, FrameProtoAnalyzer, "framerelay", path)
	}
}

func TestErrCheckAnalyzer(t *testing.T) {
	runFixture(t, ErrCheckAnalyzer, "errs", "fixture/errs")
}

func TestSuppressionContract(t *testing.T) {
	runFixture(t, DeterminismAnalyzer, "suppress", "fixture/suppress")
}

// TestModuleClean pins the tentpole's end state: the whole module runs
// the full suite with zero findings. A regression here is a real
// finding — fix it or justify a lint:ignore, exactly as in CI.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(pkgs, func(p *Package) bool { return p.Path == l.ModulePath+"/cmd/dev-certs" }) {
		t.Errorf("LoadModule skipped %s/cmd/dev-certs", l.ModulePath)
	}
	diags, err := Run(Suite(), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestLoadModuleSkipsOnlyRootDevCerts: LoadModule skips the module root's
// dev-certs directory (throwaway TLS material, never source) but loads
// every other directory of that name, such as cmd/dev-certs. The root's
// copy here holds a file that does not type-check, so loading it fails.
func TestLoadModuleSkipsOnlyRootDevCerts(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":                "module fixmod\n",
		"dev-certs/junk.go":     "package junk\n\nvar x int = \"not an int\"\n",
		"cmd/dev-certs/main.go": "package main\n\nfunc main() {}\n",
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Path)
	}
	if want := []string{"fixmod/cmd/dev-certs"}; !slices.Equal(got, want) {
		t.Fatalf("LoadModule loaded %q, want %q", got, want)
	}
}

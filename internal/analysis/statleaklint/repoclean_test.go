package statleaklint_test

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/statleaklint"
)

// TestLintRepoClean runs the full analyzer suite over the repository
// in-process and fails on any active finding: the invariants the suite
// encodes are part of the build, not an optional side channel. Every
// intentional exception must be a //lint:ignore with a reason (which
// this test also re-checks via the suppression problem findings that
// RunAnalyzers folds into the active set).
func TestLintRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := analysis.Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatalf("loading repository packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader returned no packages")
	}
	findings, err := analysis.RunAnalyzers(pkgs, statleaklint.Analyzers())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Errorf("%d finding(s): fix them or add //lint:ignore with a reason", len(findings))
	}
}

// TestAnalyzerNamesFitProblemMatcher: CI's problem matcher
// (.github/statleaklint-problem-matcher.json) reads a report line's
// analyzer through the code group [a-z]+, so every analyzer name, and
// the "suppression" pseudo-analyzer, must fit it for a finding to
// become an annotation.
func TestAnalyzerNamesFitProblemMatcher(t *testing.T) {
	code := regexp.MustCompile(`^[a-z]+$`)
	names := []string{"suppression"}
	for _, a := range statleaklint.Analyzers() {
		names = append(names, a.Name)
	}
	for _, name := range names {
		if !code.MatchString(name) {
			t.Errorf("analyzer name %q does not match the problem matcher's code group [a-z]+", name)
		}
	}
}

// moduleRoot returns the directory of the module's go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" {
		t.Fatal("not inside a module")
	}
	return filepath.Dir(gomod)
}

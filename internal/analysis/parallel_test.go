package analysis

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The parallel-readiness fixtures: each carries deliberate
// violations plus the clean shapes the analyzer must not flag.
func TestOwnershipFixture(t *testing.T)  { checkModuleFixture(t, Ownership, "ownership") }
func TestRNGFlowFixture(t *testing.T)    { checkModuleFixture(t, RNGFlow, "rngflow") }
func TestPhaseCheckFixture(t *testing.T) { checkModuleFixture(t, PhaseCheck, "phasecheck") }

// metaModuleFixture asserts the want harness fails in both directions
// for a module analyzer (the wantmeta pattern): the fixture carries
// one real diagnostic under a non-matching pattern and one phantom
// expectation, so exactly three problems must surface — the
// unexpected diagnostic and both unmatched wants.
func metaModuleFixture(t *testing.T, a *ModuleAnalyzer, name string) {
	t.Helper()
	problems, err := CheckModuleExpectations([]*Package{loadFixturePkg(t, name)}, a)
	if err != nil {
		t.Fatalf("CheckModuleExpectations: %v", err)
	}
	if len(problems) != 3 {
		t.Fatalf("got %d problems, want 3:\n%s", len(problems), strings.Join(problems, "\n"))
	}
	joined := strings.Join(problems, "\n")
	for _, want := range []string{
		"unexpected diagnostic",
		`"this pattern matches nothing"`,
		"phantom",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("problems lack %s:\n%s", want, joined)
		}
	}
}

func TestOwnershipWantHarness(t *testing.T)  { metaModuleFixture(t, Ownership, "ownershipmeta") }
func TestRNGFlowWantHarness(t *testing.T)    { metaModuleFixture(t, RNGFlow, "rngflowmeta") }
func TestPhaseCheckWantHarness(t *testing.T) { metaModuleFixture(t, PhaseCheck, "phasecheckmeta") }

// TestOwnershipReportStable pins the determinism contract: two
// independently built Module views of the same source must render
// byte-identical readiness reports (CI double-runs the generator and
// cmps, so any map-order leak fails loudly here first).
func TestOwnershipReportStable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs := loadModulePackages(t)
	first := OwnershipReport(NewModule(pkgs))
	second := OwnershipReport(NewModule(pkgs))
	if !bytes.Equal(first, second) {
		t.Fatalf("OwnershipReport is not deterministic across module builds:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if !bytes.Contains(first, []byte("## Summary")) {
		t.Fatalf("report lacks the summary section:\n%s", first)
	}
}

// TestReadinessReportCurrent fails when the checked-in
// PARALLEL_READINESS.md drifts from the code: the report is generated,
// reviewed, and committed, and `make readiness` refreshes it.
func TestReadinessReportCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs := loadModulePackages(t)
	got := OwnershipReport(NewModule(pkgs))
	path := filepath.Join(testLoader(t).ModuleDir, "PARALLEL_READINESS.md")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v (generate it with `make readiness`)", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("PARALLEL_READINESS.md is stale: regenerate it with `make readiness`")
	}
}

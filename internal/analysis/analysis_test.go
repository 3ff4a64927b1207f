package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

var (
	repoOnce sync.Once
	repo     *analysis.Module
	repoErr  error
)

// repoModule loads this repository's module once per test binary; the
// tests that read it share the load.
func repoModule(t *testing.T) *analysis.Module {
	t.Helper()
	repoOnce.Do(func() {
		root, err := analysis.FindModuleRoot(".")
		if err != nil {
			repoErr = err
			return
		}
		repo, repoErr = analysis.LoadModule(root)
	})
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repo
}

// loadFixture loads one testdata/src fixture tree as a module named
// "fixture" and runs the full rule set over it.
func loadFixture(t *testing.T, dir string) []analysis.Diagnostic {
	t.Helper()
	m, err := analysis.Load(dir, "fixture")
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	return analysis.Run(m, analysis.All())
}

// render reduces diagnostics to the golden "file:line: [rule]" triples so
// messages can be reworded without touching every expectation.
func render(diags []analysis.Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, fmt.Sprintf("%s:%d: [%s]", d.Pos.Filename, d.Pos.Line, d.Rule))
	}
	return out
}

// readExpect reads a fixture's expect.txt; a missing file means the
// fixture must be clean.
func readExpect(t *testing.T, dir string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "expect.txt"))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			out = append(out, line)
		}
	}
	return out
}

// TestFixtures runs every analyzer over every fixture module and compares
// the diagnostics against the fixture's golden expect.txt. Diagnostics are
// emitted sorted by position, so the goldens are position-sorted too.
func TestFixtures(t *testing.T) {
	entries, err := os.ReadDir("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no fixtures under testdata/src")
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join("testdata/src", e.Name())
		t.Run(e.Name(), func(t *testing.T) {
			got := render(loadFixture(t, dir))
			want := readExpect(t, dir)
			if len(got) != len(want) {
				t.Fatalf("diagnostic count mismatch: got %d, want %d\ngot:\n  %s\nwant:\n  %s",
					len(got), len(want), strings.Join(got, "\n  "), strings.Join(want, "\n  "))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("diagnostic %d: got %q, want %q", i, got[i], want[i])
				}
			}
		})
	}
}

// TestRuleCoverage pins the acceptance criterion directly: each of the nine
// rules has a fixture where it fires and a sibling fixture that stays
// clean.
func TestRuleCoverage(t *testing.T) {
	for _, rule := range []string{
		"detrand", "maporder", "layering", "errdrop",
		"guardedby", "lockorder", "goroutine", "noalloc", "atomicmix",
	} {
		t.Run(rule, func(t *testing.T) {
			bad := filepath.Join("testdata/src", rule+"_bad")
			fired := false
			for _, d := range loadFixture(t, bad) {
				if d.Rule == rule {
					fired = true
					break
				}
			}
			if !fired {
				t.Errorf("rule %s did not fire on %s", rule, bad)
			}

			clean := filepath.Join("testdata/src", rule+"_clean")
			if diags := loadFixture(t, clean); len(diags) != 0 {
				t.Errorf("rule %s: %s is not clean: %v", rule, clean, render(diags))
			}
		})
	}
}

// TestSuppressionRequiresReason pins the suppression contract: a reasoned
// //custody:ignore silences the finding, a reasonless one does not and is
// itself reported.
func TestSuppressionRequiresReason(t *testing.T) {
	diags := loadFixture(t, filepath.Join("testdata/src", "errdrop_bad"))
	var ignores int
	for _, d := range diags {
		if d.Rule == "ignore" {
			ignores++
		}
	}
	if ignores != 2 {
		t.Errorf("expected 2 [ignore] diagnostics (missing reason + unknown rule), got %d", ignores)
	}

	clean := loadFixture(t, filepath.Join("testdata/src", "errdrop_clean"))
	if len(clean) != 0 {
		t.Errorf("reasoned suppression failed to silence findings: %v", render(clean))
	}
}

// TestSuppressionEdgeCases pins the corners of //custody:ignore parsing
// against the suppress_bad fixture: trailing and line-above placement both
// work, one comment can carry several suppressions, and unknown rules,
// missing reasons, and bare ignores are each reported without silencing
// the underlying finding.
func TestSuppressionEdgeCases(t *testing.T) {
	diags := loadFixture(t, filepath.Join("testdata/src", "suppress_bad"))

	var ignores, errdrops, detrands int
	for _, d := range diags {
		switch d.Rule {
		case "ignore":
			ignores++
		case "errdrop":
			errdrops++
		case "detrand":
			detrands++
		}
	}
	// Three malformed segments: unknown rule, missing reason, bare ignore.
	if ignores != 3 {
		t.Errorf("expected 3 [ignore] diagnostics, got %d:\n  %s", ignores, strings.Join(render(diags), "\n  "))
	}
	// Each malformed segment fails to suppress its errdrop finding.
	if errdrops != 3 {
		t.Errorf("expected 3 surviving [errdrop] findings, got %d:\n  %s", errdrops, strings.Join(render(diags), "\n  "))
	}
	// Every detrand finding is covered by a well-formed segment — including
	// the one sharing a comment with a malformed segment, and the
	// line-above comment carrying two suppressions at once.
	if detrands != 0 {
		t.Errorf("expected all detrand findings suppressed, got %d:\n  %s", detrands, strings.Join(render(diags), "\n  "))
	}
}

// TestLockOrderReportDeterministic pins the -lockreport contract: three
// independent loads of the same module render byte-identical reports, and
// the report names the blessed acquisition order.
func TestLockOrderReportDeterministic(t *testing.T) {
	dir := filepath.Join("testdata/src", "lockorder_clean")
	var first string
	for i := 0; i < 3; i++ {
		m, err := analysis.Load(dir, "fixture")
		if err != nil {
			t.Fatal(err)
		}
		got := analysis.LockOrderReport(m)
		if i == 0 {
			first = got
			continue
		}
		if got != first {
			t.Fatalf("report differs between runs:\n--- run 0 ---\n%s--- run %d ---\n%s", first, i, got)
		}
	}
	for _, want := range []string{
		"lockorder: 3 mutex(es)",
		"Broker.state -> Broker.queue",
		"blessed acquisition order:",
		"1. Broker.state",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("report missing %q:\n%s", want, first)
		}
	}
	if strings.Contains(first, "cycle") {
		t.Errorf("clean fixture reported a cycle:\n%s", first)
	}
}

// TestLockOrderReportCoversCustodyd pins that the module's own blessed-
// order report names the custodyd server mutex: the service edge is the
// repo's first long-lived concurrent component, and its lock must be part
// of the machine-checked acquisition order.
func TestLockOrderReportCoversCustodyd(t *testing.T) {
	m := repoModule(t)
	report := analysis.LockOrderReport(m)
	if !strings.Contains(report, "Server.mu") {
		t.Errorf("lock report does not cover custodyd's Server.mu:\n%s", report)
	}
	if strings.Contains(report, "cycle") {
		t.Errorf("module lock graph reports a cycle:\n%s", report)
	}
}

// TestNoAllocHotPathsAnnotated pins that the static //custody:noalloc
// contract covers the paths the dynamic allocation gates cover: the flight
// recorder's record path (TestRecordingDoesNotAllocate), the allocator's
// pick/update chain (the benchreg allocs/op gate), the min-cost solver's
// heap (TestWarmResolveAllocatesNothing) and the NameNode's locality
// predicates (TestLocalityPredicatesDoNotAllocate).
func TestNoAllocHotPathsAnnotated(t *testing.T) {
	m := repoModule(t)
	got := map[string]bool{}
	for _, name := range m.NoAllocFuncs() {
		got[name] = true
	}
	for _, want := range []string{
		// obsv record path.
		"internal/obsv.FlightRecorder.BeginRound",
		"internal/obsv.FlightRecorder.Decide",
		"internal/obsv.FlightRecorder.Grant",
		"internal/obsv.FlightRecorder.pushDecision",
		"internal/obsv.FlightRecorder.pushGrant",
		// core pick/update chain.
		"internal/core.allocator.run",
		"internal/core.allocator.assign",
		"internal/core.allocator.emitPick",
		"internal/core.allocator.minLocality",
		"internal/core.execPool.takeSlot",
		"internal/core.execPool.takeAny",
		"internal/core.execPool.takeOnAny",
		// event heap.
		"internal/event.Engine.push",
		"internal/event.Engine.popRoot",
		"internal/event.Engine.siftDown",
		// min-cost flow Dijkstra heap.
		"internal/maxflow.pq.push",
		"internal/maxflow.pq.pop",
		// hdfs locality predicates.
		"internal/hdfs.NameNode.HasReplicaOn",
		"internal/hdfs.NameNode.HasReplica",
		"internal/hdfs.containsNode",
		"internal/hdfs.DataNode.Alive",
	} {
		if !got[want] {
			t.Errorf("hot-path function %s is not annotated //custody:noalloc (have: %v)", want, m.NoAllocFuncs())
		}
	}
}

// TestDiagnosticFormat pins the file:line: [rule] message contract the
// tooling (and CI log scraping) relies on.
func TestDiagnosticFormat(t *testing.T) {
	diags := loadFixture(t, filepath.Join("testdata/src", "layering_bad"))
	if len(diags) == 0 {
		t.Fatal("expected findings")
	}
	s := diags[0].String()
	if !strings.HasPrefix(s, "internal/core/core.go:6: [layering] ") {
		t.Errorf("diagnostic format changed: %q", s)
	}
}

// TestSelfLint runs custodylint over this repository: the module must stay
// clean. This is the machine-checked version of the determinism, layering,
// and error-handling contracts documented in DESIGN.md — a regression here
// means a contract was broken (or needs an annotated, reasoned exception).
func TestSelfLint(t *testing.T) {
	m := repoModule(t)
	for _, d := range analysis.Run(m, analysis.All()) {
		t.Errorf("%s", d)
	}
}

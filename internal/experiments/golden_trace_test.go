package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/manager"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden trace files under testdata/golden")

// goldenRun replays one canonical shrunken experiment — one seed of the
// workload kind under the manager and task scheduler — and returns its full
// timeline.
func goldenRun(kind workload.Kind, mk ManagerKind, sk driver.SchedulerKind) (*trace.Recorder, error) {
	spec := workload.DefaultSpec(kind)
	spec.Apps = 2
	spec.JobsPerApp = 3
	sched := workload.Generate(spec, xrand.New(7))
	cfg := driver.DefaultConfig()
	cfg.Seed = 7
	cfg.Nodes = 16
	cfg.RackSize = 4
	cfg.Manager = NewManager(mk, 7)
	cfg.Scheduler = sk
	rec := trace.NewRecorder()
	cfg.Tracer = rec
	if _, err := driver.RunSchedule(cfg, sched); err != nil {
		return nil, err
	}
	return rec, nil
}

// TestGoldenTraces pins the end-to-end behavior of the whole stack — the
// allocator fast path included — byte-for-byte: every simulation timeline
// must match the recorded canonical trace exactly, for one seed of each
// workload kind under both managers. Regenerate after an intentional
// behavior change with:
//
//	go test ./internal/experiments -run TestGoldenTraces -update
func TestGoldenTraces(t *testing.T) {
	for _, kind := range workload.Kinds() {
		for _, mk := range []ManagerKind{Standalone, Custody} {
			kind, mk := kind, mk
			name := fmt.Sprintf("%s-%s", strings.ToLower(string(kind)), mk)
			t.Run(name, func(t *testing.T) {
				rec, err := goldenRun(kind, mk, driver.SchedDelay)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := rec.WriteCSV(&buf); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata", "golden", name+".trace")
				if *updateGolden {
					blessGolden(t, path, buf.Bytes())
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden trace: %v (regenerate with -update)", err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("trace diverges from golden %s at line %d:\n got: %s\nwant: %s",
						path, firstDiffLine(buf.Bytes(), want), lineAt(buf.Bytes(), firstDiffLine(buf.Bytes(), want)), lineAt(want, firstDiffLine(buf.Bytes(), want)))
				}
			})
		}
	}
}

// TestGoldenQuincySchedulerTrace pins the Quincy-style task scheduler
// (min-cost flow per offer, §VII) end to end: WordCount under Custody on
// goldenRun's 16-node topology, whose 4-node racks make rack costs occur.
// The *-policy-quincy goldens cover the allocation policy, not this
// scheduler. Regenerate after an intentional behavior change with:
//
//	go test ./internal/experiments -run TestGoldenQuincySchedulerTrace -update
func TestGoldenQuincySchedulerTrace(t *testing.T) {
	rec, err := goldenRun(workload.WordCount, Custody, driver.SchedQuincy)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "wordcount-custody-sched-quincy.trace")
	if *updateGolden {
		blessGolden(t, path, buf.Bytes())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden trace: %v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		d := firstDiffLine(buf.Bytes(), want)
		t.Fatalf("trace diverges from golden %s at line %d:\n got: %s\nwant: %s",
			path, d, lineAt(buf.Bytes(), d), lineAt(want, d))
	}
}

// TestGoldenRackTrace pins a canonical Custody trace on a topology none of
// the other goldens use — 32 nodes in 8-node racks, 3 apps — so
// three-way contention for executors on wider racks has a golden of its
// own. Regenerate after an intentional behavior change with:
//
//	go test ./internal/experiments -run TestGoldenRackTrace -update
func TestGoldenRackTrace(t *testing.T) {
	spec := workload.DefaultSpec(workload.WordCount)
	spec.Apps = 3
	spec.JobsPerApp = 2
	sched := workload.Generate(spec, xrand.New(11))
	cfg := driver.DefaultConfig()
	cfg.Seed = 11
	cfg.Nodes = 32
	cfg.RackSize = 8
	cfg.Manager = manager.NewCustody()
	rec := trace.NewRecorder()
	cfg.Tracer = rec
	if _, err := driver.RunSchedule(cfg, sched); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "wordcount-custody-32n-rack8.trace")
	if *updateGolden {
		blessGolden(t, path, buf.Bytes())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden trace: %v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		d := firstDiffLine(buf.Bytes(), want)
		t.Fatalf("trace diverges from golden %s at line %d:\n got: %s\nwant: %s",
			path, d, lineAt(buf.Bytes(), d), lineAt(want, d))
	}
}

// firstDiffLine returns the 1-based index of the first differing line.
func firstDiffLine(a, b []byte) int {
	la := strings.Split(string(a), "\n")
	lb := strings.Split(string(b), "\n")
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			return i + 1
		}
	}
	return n + 1
}

// lineAt returns the 1-based line of the buffer, or a marker past the end.
func lineAt(buf []byte, line int) string {
	ls := strings.Split(string(buf), "\n")
	if line-1 < len(ls) {
		return ls[line-1]
	}
	return "<past end of trace>"
}

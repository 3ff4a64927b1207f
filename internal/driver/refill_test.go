package driver

import (
	"testing"

	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestSortRunRefills pins the fabric's work on one small deterministic Sort
// run: the exact number of changes and refills, and that deferred refills
// cost at most one progressive-filling pass per instant at which the fabric
// changed.
func TestSortRunRefills(t *testing.T) {
	spec := workload.Spec{Kind: workload.Sort, Apps: 2, JobsPerApp: 3, MeanInterarrival: 2, DatasetFiles: 2}
	d, err := newScheduled(smallConfig(custodyMgr()), workload.Generate(spec, xrand.New(11)))
	if err != nil {
		t.Fatal(err)
	}
	fb := d.Fabric()
	instants, changes, last := 0, fb.Changes, -1.0
	for d.Engine().Step() {
		if fb.Changes != changes {
			changes = fb.Changes
			if now := d.Engine().Now(); now != last {
				instants++
				last = now
			}
		}
	}
	if done, want := len(d.Collector().Jobs), spec.Apps*spec.JobsPerApp; done != want {
		t.Fatalf("%d jobs completed, want %d", done, want)
	}
	if fb.Refills > int64(instants) {
		t.Fatalf("%d refills for %d instants with fabric changes", fb.Refills, instants)
	}
	const wantChanges, wantRefills = 1741, 281
	if fb.Changes != wantChanges || fb.Refills != wantRefills {
		t.Fatalf("changes=%d refills=%d, want %d and %d", fb.Changes, fb.Refills, wantChanges, wantRefills)
	}
}

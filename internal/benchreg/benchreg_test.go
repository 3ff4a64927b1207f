package benchreg

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/race"
	"repro/internal/xrand"
)

func sampleReport() *Report {
	r := &Report{
		Schema:      Schema,
		YardstickNs: 1e8,
		Speedup1000: 9.0,
		Cases: []Case{
			{Name: CaseSweep, NsPerOp: 3e8, AllocsPerOp: 500000, NsNorm: 3.0},
			{Name: CaseAlloc1000, NsPerOp: 1.1e7, AllocsPerOp: 900, NsNorm: 0.11},
			{Name: CaseRef1000, NsPerOp: 1e8, AllocsPerOp: 40000, NsNorm: 1.0},
			{Name: CaseAlloc5000, NsPerOp: 6e7, AllocsPerOp: 4500, NsNorm: 0.6},
		},
	}
	return r
}

// TestCompareFlagsRegression exercises the gate the ci.sh bench stage relies
// on: a synthetic 2× slowdown (in normalized time) and a synthetic
// allocation regression must both be flagged at 15% tolerance, and an
// identical run must pass.
func TestCompareFlagsRegression(t *testing.T) {
	base := sampleReport()

	if v := Compare(sampleReport(), base, 0.15); len(v) != 0 {
		t.Fatalf("identical run flagged: %v", v)
	}

	slow := sampleReport()
	slow.Find(CaseAlloc1000).NsNorm *= 2
	v := Compare(slow, base, 0.15)
	if len(v) != 1 || !strings.Contains(v[0], CaseAlloc1000) || !strings.Contains(v[0], "normalized time") {
		t.Fatalf("2x normalized-time regression not flagged correctly: %v", v)
	}

	leaky := sampleReport()
	leaky.Find(CaseAlloc5000).AllocsPerOp *= 3
	v = Compare(leaky, base, 0.15)
	if len(v) != 1 || !strings.Contains(v[0], "allocs/op") {
		t.Fatalf("allocation regression not flagged correctly: %v", v)
	}

	// Within-tolerance noise must pass.
	noisy := sampleReport()
	noisy.Find(CaseSweep).NsNorm *= 1.10
	if v := Compare(noisy, base, 0.15); len(v) != 0 {
		t.Fatalf("10%% noise flagged at 15%% tolerance: %v", v)
	}
}

func TestCompareSpeedupFloor(t *testing.T) {
	cur := sampleReport()
	cur.Speedup1000 = 3.5
	v := Compare(cur, sampleReport(), 0.15)
	if len(v) != 1 || !strings.Contains(v[0], "speedup_1000") {
		t.Fatalf("speedup floor not enforced: %v", v)
	}
}

func TestCompareMissingCase(t *testing.T) {
	short := sampleReport()
	short.Cases = short.Cases[:2]
	v := Compare(short, sampleReport(), 0.15)
	if len(v) == 0 {
		t.Fatal("missing baseline case not flagged")
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := t.TempDir() + "/bench.json"
	want := sampleReport()
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != want.Schema || got.Speedup1000 != want.Speedup1000 || len(got.Cases) != len(want.Cases) {
		t.Fatalf("round-trip mismatch: %+v vs %+v", got, want)
	}
	for i := range want.Cases {
		if got.Cases[i] != want.Cases[i] {
			t.Fatalf("case %d round-trip mismatch: %+v vs %+v", i, got.Cases[i], want.Cases[i])
		}
	}
}

// TestMicroInstanceEquivalence pins that on the benchmark instance itself
// the fast path and the reference yardstick agree byte-for-byte — without
// it a divergence could silently inflate the measured speedup. Scaled down
// under the race detector.
func TestMicroInstanceEquivalence(t *testing.T) {
	nodes := 300
	if race.Enabled {
		nodes = 60
	}
	demands, idle := MicroInstance(nodes, xrand.New(1))
	opts := core.DefaultOptions()
	want := core.AllocateReference(demands, idle, opts)
	got := core.NewSession().Allocate(demands, idle, opts)
	if len(want.Assignments) != len(got.Assignments) {
		t.Fatalf("plan length diverges: %d vs %d", len(got.Assignments), len(want.Assignments))
	}
	for i := range want.Assignments {
		if want.Assignments[i] != got.Assignments[i] {
			t.Fatalf("assignment %d diverges: %+v vs %+v", i, got.Assignments[i], want.Assignments[i])
		}
	}
}

// Benchmark entry points for `go test -bench` exploration. The 5000-node
// case is skipped under the race detector (internal/race pattern) so
// `go test -race -bench .` stays within CI timeouts; the harness binary
// (cmd/custodybench -emit-json) is never built with -race.
func BenchmarkAlloc1000Incremental(b *testing.B) {
	demands, idle := MicroInstance(1000, xrand.New(1))
	opts := core.DefaultOptions()
	sess := core.NewSession()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Allocate(demands, idle, opts)
	}
}

func BenchmarkAlloc1000Reference(b *testing.B) {
	if race.Enabled {
		b.Skip("reference allocator at 1000 nodes is too slow under the race detector")
	}
	demands, idle := MicroInstance(1000, xrand.New(1))
	opts := core.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.AllocateReference(demands, idle, opts)
	}
}

func BenchmarkAlloc5000Incremental(b *testing.B) {
	if race.Enabled {
		b.Skip("5000-node microbenchmark skipped under the race detector (internal/race gate)")
	}
	demands, idle := MicroInstance(5000, xrand.New(1))
	opts := core.DefaultOptions()
	sess := core.NewSession()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Allocate(demands, idle, opts)
	}
}

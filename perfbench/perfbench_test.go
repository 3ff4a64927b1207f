package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/hdfs"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	cases := []struct {
		n         int
		value     float64
		pct       float64
		beyondMin int
	}{
		{n: 1, value: 1, pct: 100},
		{n: 10, value: 10, pct: 100}, // no percentile has 10 beyond: the maximum
		{n: 11, value: 1, pct: 100.0 / 11, beyondMin: 10},
		{n: 100, value: 90, pct: 90, beyondMin: 10},
		{n: 1000, value: 990, pct: 99, beyondMin: 10},
	}
	for _, c := range cases {
		xs := seq(c.n)
		v, p := tail(xs)
		if v != c.value || math.Abs(p-c.pct) > 1e-9 {
			t.Errorf("tail(1..%d) = %v at p%v, want %v at p%v", c.n, v, p, c.value, c.pct)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if c.beyondMin > 0 && beyond != c.beyondMin {
			t.Errorf("tail(1..%d): %d samples beyond, want %d", c.n, beyond, c.beyondMin)
		}
	}
	if v, p := tail(nil); v != 0 || p != 0 {
		t.Errorf("tail(nil) = %v, %v", v, p)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestFailFrac(t *testing.T) {
	for _, c := range []struct {
		failed, attempted int
		want              float64
	}{
		{0, 10, 0}, {3, 12, 0.25}, {5, 5, 1}, {0, 0, 1},
	} {
		if got := failFrac(c.failed, c.attempted); got != c.want {
			t.Errorf("failFrac(%d, %d) = %v, want %v", c.failed, c.attempted, got, c.want)
		}
	}
}

// TestCheckFoldsFailures: a failed operation, a problem, or a digest that
// differs between episodes each make the run incorrect.
func TestCheckFoldsFailures(t *testing.T) {
	good := episode{attempted: 4, digest: "a", locality: 0.5}
	if res := check([]episode{good, good}); !res.correct || res.attempted != 8 || res.failed != 0 {
		t.Fatalf("two identical clean episodes: %+v", res)
	}
	failed := good
	failed.failed = 1
	diverged := good
	diverged.digest = "b"
	problem := good
	problem.problems = []string{"audit failed"}
	for name, ep := range map[string]episode{"failed op": failed, "digest": diverged, "problem": problem} {
		if res := check([]episode{good, ep}); res.correct {
			t.Errorf("%s: run reported correct", name)
		}
	}
	if res := check([]episode{{digest: "a"}}); res.correct {
		t.Error("a run that attempted nothing reported correct")
	}
}

// TestSeedPlumbing: the churn the allocator sees is a function of the seed
// alone.
func TestSeedPlumbing(t *testing.T) {
	fingerprint := func(seed uint64) string {
		c := newChurn(seed)
		c.snapshot()
		var b bytes.Buffer
		for r := 0; r < 3; r++ {
			for _, d := range c.demands {
				for _, j := range d.Jobs {
					for _, td := range j.Tasks {
						fmt.Fprintf(&b, "%d %v;", td.Block, td.Nodes)
					}
				}
			}
			c.next()
		}
		return fnvHex(b.String())
	}
	if a, b := fingerprint(7), fingerprint(7); a != b {
		t.Errorf("same seed, different inputs: %s vs %s", a, b)
	}
	if a, b := fingerprint(7), fingerprint(8); a == b {
		t.Errorf("seeds 7 and 8 generated the same inputs %s", a)
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "repro/internal/netsim.(*Fabric).reallocate", "repro/internal/driver.(*Driver).launch"}, "netsim"},
		{[]string{"repro/internal/core.grow[...]", "repro/internal/manager.(*Custody).reallocate"}, "core"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "repro/internal/hdfs.(*NameNode).Locations"}, "gc"},
		{[]string{"syscall.Syscall", "os.(*File).Sync"}, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestProfileLeavesAsideOut profiles work done entirely under aside: the
// decoder must see the samples and the attribution must drop them.
func TestProfileLeavesAsideOut(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	aside(func() {
		x := 1.0
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			x = math.Sqrt(x + 1)
		}
		sink = x
	})
	pprof.StopCPUProfile()
	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Skip("no CPU samples taken")
	}
	a, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if a.Samples != 0 {
		t.Errorf("%d samples taken under aside were attributed: %v", a.Samples, a.Buckets)
	}
}

var sink float64

// TestWrappersAreTransparent runs one small simulation with the manager,
// replica selector and tracer wrapped and once without; the collector's
// statistics must match bit for bit. An executor crashes and recovers
// mid-run, so the wrapper's manager.ExecutorFaultHandler forwarding is on
// the path.
func TestWrappersAreTransparent(t *testing.T) {
	run := func(rec *recorder) *metrics.Collector {
		sched := workload.Generate(workload.Spec{Kind: workload.WordCount, Apps: 2, JobsPerApp: 4}, xrand.New(3))
		cfg := driver.DefaultConfig()
		cfg.Nodes = 8
		cfg.RackSize = 4
		cfg.Seed = 5
		cfg.Manager = manager.NewCustody()
		if rec != nil {
			cfg.Manager = wrapManager(cfg.Manager, rec)
			cfg.ReplicaSelection = &spanSelector{inner: hdfs.RandomSelector{}, rec: rec}
			cfg.Tracer = &launchCounter{}
		}
		d, _, err := simSetup(cfg, sched)
		if err != nil {
			t.Fatal(err)
		}
		d.Schedule(5, func() { d.InjectExecutorFail(3) })
		d.Schedule(9, func() { d.InjectExecutorRecover(3) })
		return d.Run()
	}
	plain := run(nil)
	rec := newRecorder()
	wrapped := run(rec)
	if a, b := collectorDigest(plain), collectorDigest(wrapped); a != b {
		t.Fatalf("wrapped run's statistics differ: %s vs %s", b, a)
	}
	st := rec.stats(0)
	if st.get("manager").Calls == 0 || st.get("hdfs.pick").Calls == 0 {
		t.Errorf("wrappers recorded no spans: %d manager, %d picks", st.get("manager").Calls, st.get("hdfs.pick").Calls)
	}
}

func TestWrapManagerKeepsFaultHandler(t *testing.T) {
	rec := newRecorder()
	if _, ok := wrapManager(manager.NewCustody(), rec).(manager.ExecutorFaultHandler); !ok {
		t.Error("wrapped Custody lost manager.ExecutorFaultHandler")
	}
	if _, ok := wrapManager(manager.NewStandalone(xrand.New(1), false), rec).(manager.ExecutorFaultHandler); ok {
		t.Error("wrapped Standalone gained manager.ExecutorFaultHandler")
	}
}

// TestSpanSelfTime: a span's self time excludes its direct children.
func TestSpanSelfTime(t *testing.T) {
	r := newRecorder()
	r.run = 1
	outer := r.begin("outer")
	r.do("inner", func() { time.Sleep(20 * time.Millisecond) })
	r.end(outer)
	st := r.stats(1)
	o, in := st.get("outer"), st.get("inner")
	if o.Calls != 1 || in.Calls != 1 {
		t.Fatalf("calls: outer %d, inner %d", o.Calls, in.Calls)
	}
	if o.Self != o.Busy-in.Busy {
		t.Errorf("outer self %v, want busy %v minus child %v", o.Self, o.Busy, in.Busy)
	}
	if r.spans[1].Parent != r.spans[0].ID || r.spans[0].Parent != 0 {
		t.Errorf("parents: %+v", r.spans)
	}
}

package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/event"
	"repro/internal/xrand"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (±%v)", msg, got, want, tol)
	}
}

func cfg(up, down, disk float64) Config {
	return Config{UplinkBps: up, DownlinkBps: down, DiskBps: disk}
}

func TestSingleLocalRead(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 2, cfg(100, 100, 50))
	var finish float64 = -1
	fb.LocalRead(0, 500, func() { finish = eng.Now() })
	eng.Run()
	approx(t, finish, 10, 1e-6, "local read of 500B at 50B/s") // 500/50
}

func TestSingleRemoteRead(t *testing.T) {
	eng := event.NewEngine()
	// uplink is the bottleneck: 20 B/s.
	fb := NewFabric(eng, 2, cfg(20, 100, 50))
	var finish float64 = -1
	fb.RemoteRead(0, 1, 100, func() { finish = eng.Now() })
	eng.Run()
	approx(t, finish, 5, 1e-6, "remote read bottlenecked by uplink")
}

func TestRemoteReadSameNodeIsLocal(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 2, cfg(1, 1, 50)) // network would take forever
	var finish float64 = -1
	fb.RemoteRead(1, 1, 100, func() { finish = eng.Now() })
	eng.Run()
	approx(t, finish, 2, 1e-6, "same-node remote read must use disk only")
}

func TestFairShareTwoFlows(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 2, cfg(100, 100, 40))
	var t1, t2 float64 = -1, -1
	fb.LocalRead(0, 200, func() { t1 = eng.Now() })
	fb.LocalRead(0, 200, func() { t2 = eng.Now() })
	eng.Run()
	// Both share the 40 B/s disk: each gets 20 B/s, finishing at 10s.
	approx(t, t1, 10, 1e-6, "flow 1 fair share")
	approx(t, t2, 10, 1e-6, "flow 2 fair share")
}

func TestShorterFlowFreesBandwidth(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 2, cfg(100, 100, 40))
	var tShort, tLong float64 = -1, -1
	fb.LocalRead(0, 100, func() { tShort = eng.Now() })
	fb.LocalRead(0, 300, func() { tLong = eng.Now() })
	eng.Run()
	// Phase 1: both at 20 B/s until short finishes at t=5 (100B).
	// Phase 2: long has 200B left at 40 B/s → 5 more seconds.
	approx(t, tShort, 5, 1e-6, "short flow")
	approx(t, tLong, 10, 1e-6, "long flow speeds up after short finishes")
}

func TestMaxMinUnevenBottlenecks(t *testing.T) {
	eng := event.NewEngine()
	// Node 0 uplink 30; node 1 downlink 100; node 2 downlink 12.
	fb := NewFabric(eng, 3, cfg(30, 100, 1000))
	// Flow A: 0→1 (up0, down1). Flow B: 0→2 (up0, down2 where down2 cap=100
	// too). To get asymmetric bottlenecks use a custom resource set.
	down2 := fb.DownlinkResource(2)
	down2.Capacity = 12
	var ta, tb float64 = -1, -1
	fb.Transfer(0, 1, 180, func() { ta = eng.Now() })
	fb.Transfer(0, 2, 120, func() { tb = eng.Now() })
	eng.Run()
	// Max-min: down2 share = 12 < up0 share = 15 → B frozen at 12,
	// A then gets up0 residual 18.
	// B: 120/12 = 10s. A: 180/18 = 10s.
	approx(t, ta, 10, 1e-6, "flow A rate 18")
	approx(t, tb, 10, 1e-6, "flow B rate 12")
}

func TestCancelStopsFlow(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 2, cfg(100, 100, 10))
	fired := false
	fl := fb.LocalRead(0, 100, func() { fired = true })
	eng.Schedule(1, func() { fb.Cancel(fl) })
	eng.Run()
	if fired {
		t.Fatal("cancelled flow invoked done callback")
	}
	if fb.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d after cancel", fb.ActiveFlows())
	}
}

func TestCancelRestoresBandwidth(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 2, cfg(100, 100, 40))
	var tKeep float64 = -1
	fl := fb.LocalRead(0, 400, nil)
	fb.LocalRead(0, 400, func() { tKeep = eng.Now() })
	eng.Schedule(5, func() { fb.Cancel(fl) })
	eng.Run()
	// 0–5s at 20 B/s → 100B done; remaining 300B at 40 B/s → 7.5s more.
	approx(t, tKeep, 12.5, 1e-6, "survivor speeds up after cancel")
}

func TestZeroByteFlow(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 1, cfg(1, 1, 1))
	fired := false
	fb.LocalRead(0, 0, func() { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("zero-byte flow never completed")
	}
	if eng.Now() != 0 {
		t.Fatalf("zero-byte flow advanced the clock to %v", eng.Now())
	}
}

func TestZeroByteFlowCancel(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 1, cfg(1, 1, 1))
	fired := false
	fl := fb.LocalRead(0, 0, func() { fired = true })
	fb.Cancel(fl)
	eng.Run()
	if fired {
		t.Fatal("cancelled zero-byte flow fired")
	}
}

func TestManyFlowsConservation(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 10, cfg(100, 400, 300))
	rng := xrand.New(99)
	total := 0.0
	count := 0
	for i := 0; i < 200; i++ {
		src := rng.Intn(10)
		dst := rng.Intn(10)
		size := rng.Range(10, 1000)
		total += size
		delay := rng.Range(0, 50)
		eng.Schedule(delay, func() {
			fb.Transfer(src, dst, size, func() { count++ })
		})
	}
	eng.Run()
	if count != 200 {
		t.Fatalf("completed %d flows, want 200", count)
	}
	if fb.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d at end", fb.ActiveFlows())
	}
}

func TestLinodeConfigSanity(t *testing.T) {
	c := LinodeConfig()
	if c.UplinkBps >= c.DownlinkBps {
		t.Fatal("paper testbed has asymmetric links: uplink < downlink")
	}
	if c.DiskBps <= c.UplinkBps {
		t.Fatal("local disk must out-run the uplink or locality would not matter")
	}
}

// Property: with random flows over random resources, rates never exceed any
// resource capacity and no flow is starved while capacity remains.
func TestQuickCapacityRespected(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		eng := event.NewEngine()
		n := rng.IntRange(2, 8)
		fb := NewFabric(eng, n, cfg(rng.Range(10, 100), rng.Range(10, 100), rng.Range(10, 100)))
		k := rng.IntRange(1, 30)
		for i := 0; i < k; i++ {
			src := rng.Intn(n)
			dst := rng.Intn(n)
			fb.Transfer(src, dst, rng.Range(1, 100), nil)
		}
		// Inspect allocation right after setup: sum each resource's load
		// from the flows' endpoints (a same-node transfer is a disk read).
		load := map[*Resource]float64{}
		for _, fl := range fb.Flows() {
			if fl.Rate() <= 0 {
				return false // every flow must have a strictly positive rate
			}
			if fl.Src() == fl.Dst() {
				load[fb.DiskResource(fl.Src())] += fl.Rate()
				continue
			}
			load[fb.UplinkResource(fl.Src())] += fl.Rate()
			load[fb.DownlinkResource(fl.Dst())] += fl.Rate()
		}
		for r, sum := range load {
			if sum > r.Capacity*(1+1e-9) {
				return false
			}
		}
		if len(fb.Flows()) != k || fb.CheckMaxMin() != nil {
			return false
		}
		eng.Run()
		return fb.ActiveFlows() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a flow alone on its resources gets the full bottleneck rate.
func TestQuickLoneFlowFullRate(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		eng := event.NewEngine()
		up := rng.Range(10, 100)
		down := rng.Range(10, 100)
		disk := rng.Range(10, 100)
		fb := NewFabric(eng, 2, cfg(up, down, disk))
		bytes := rng.Range(100, 1000)
		var finish float64 = -1
		fb.RemoteRead(0, 1, bytes, func() { finish = eng.Now() })
		eng.Run()
		want := bytes / math.Min(disk, math.Min(up, down))
		return math.Abs(finish-want) < 1e-6*want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReallocate200Flows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := event.NewEngine()
		fb := NewFabric(eng, 100, LinodeConfig())
		rng := xrand.New(7)
		for j := 0; j < 200; j++ {
			fb.Transfer(rng.Intn(100), rng.Intn(100), 128e6, nil)
		}
		eng.Run()
	}
}

func TestLatencyDelaysCompletion(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 2, Config{UplinkBps: 100, DownlinkBps: 100, DiskBps: 50, LatencySec: 2})
	var finish float64 = -1
	fb.LocalRead(0, 100, func() { finish = eng.Now() })
	eng.Run()
	// 2s setup + 100B at 50B/s = 4s.
	approx(t, finish, 4, 1e-6, "latency + transfer")
}

func TestLatencyZeroByteFlow(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 1, Config{UplinkBps: 1, DownlinkBps: 1, DiskBps: 1, LatencySec: 0.5})
	var finish float64 = -1
	fb.LocalRead(0, 0, func() { finish = eng.Now() })
	eng.Run()
	approx(t, finish, 0.5, 1e-9, "zero-byte flow pays only latency")
}

func TestLatencyCancelDuringSetup(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 1, Config{UplinkBps: 1, DownlinkBps: 1, DiskBps: 10, LatencySec: 5})
	fired := false
	fl := fb.LocalRead(0, 100, func() { fired = true })
	eng.Schedule(1, func() { fb.Cancel(fl) })
	eng.Run()
	if fired {
		t.Fatal("flow cancelled during setup still completed")
	}
	if fb.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d", fb.ActiveFlows())
	}
}

func TestLatencySetupDoesNotConsumeBandwidth(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 1, Config{UplinkBps: 1, DownlinkBps: 1, DiskBps: 50, LatencySec: 10})
	var tFast float64 = -1
	// A latency-free path does not exist per-flow, but a second flow started
	// during the first's setup window should see the full disk.
	fb.LocalRead(0, 1000, nil) // activates at t=10
	eng.Schedule(0, func() {
		// This flow also activates at t=10; both then share.
		fb.LocalRead(0, 1000, func() { tFast = eng.Now() })
	})
	eng.Run()
	// Both active from t=10 at 25 B/s → done at t=50.
	approx(t, tFast, 50, 1e-6, "shared after simultaneous activation")
}

// A flow still in setup latency when a partition heals must activate
// without the choke: it crosses no boundary by the time it moves bytes.
func TestPartitionHealsDuringSetup(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 2, Config{UplinkBps: 100, DownlinkBps: 100, DiskBps: 100, LatencySec: 1})
	fb.SetPartition([]int{0, 1}, 1)
	var finish float64 = -1
	fb.Transfer(0, 1, 100, func() { finish = eng.Now() })
	eng.Schedule(0.5, fb.ClearPartition)
	eng.Run()
	// Activates at t=1 on a healed network: 100B at 100 B/s.
	approx(t, finish, 2, 1e-6, "flow activated after the heal")
}

// A flow started before a partition but activated inside it must pass
// through the choke like any other cross-group flow.
func TestPartitionBeginsDuringSetup(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 2, Config{UplinkBps: 100, DownlinkBps: 100, DiskBps: 100, LatencySec: 1})
	var finish float64 = -1
	fb.Transfer(0, 1, 100, func() { finish = eng.Now() })
	eng.Schedule(0.5, func() { fb.SetPartition([]int{0, 1}, 1) })
	eng.Run()
	// Activates at t=1 behind the 1 B/s choke: 100B takes 100s.
	approx(t, finish, 101, 1e-6, "flow activated inside the partition")
}

// Flows hands out a copy: reordering or clobbering it must not disturb the
// fabric's own ID-ordered list.
func TestFlowsReturnsCopy(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 3, cfg(100, 100, 40))
	for i := 0; i < 5; i++ {
		fb.Transfer(i%3, (i+1)%3, 100, nil)
	}
	got := fb.Flows()
	for i, j := 0, len(got)-1; i < j; i, j = i+1, j-1 {
		got[i], got[j] = got[j], got[i]
	}
	got[0] = nil
	again := fb.Flows()
	if len(again) != 5 {
		t.Fatalf("Flows() has %d flows, want 5", len(again))
	}
	for i, fl := range again {
		if fl == nil || fl.ID != int64(i+1) {
			t.Fatalf("Flows()[%d] = %v after the caller reordered its copy", i, fl)
		}
	}
	eng.Run()
	if fb.ActiveFlows() != 0 || fb.CompletedFlows != 5 {
		t.Fatalf("active=%d completed=%d, want 0 and 5", fb.ActiveFlows(), fb.CompletedFlows)
	}
}

// A fast flow can be left with a residue that drains in less time than the
// clock can represent at now. It must complete instead of rescheduling its
// completion at the same instant forever.
func TestCompletionBelowClockResolution(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 2, Config{UplinkBps: 25, DownlinkBps: 40, DiskBps: 100, LatencySec: 1})
	var tSlow, tFast float64 = -1, -1
	fb.RemoteReadCapTier(0, 1, 100, 0, TierMemory, func() { tSlow = eng.Now() })
	fb.LocalReadTier(0, 50, TierMemory, func() { tFast = eng.Now() })
	eng.Run()
	// The memory read runs at ~10 GB/s from t=1 and finishes within 1ns;
	// the remote read is held to the 25 B/s uplink.
	approx(t, tFast, 1, 1e-8, "memory-tier read")
	approx(t, tSlow, 5, 1e-6, "uplink-bound remote read")
}

// The certificate is not vacuous: it rejects an overloaded resource and a
// flow held below its fair share.
func TestCheckMaxMinRejects(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 3, cfg(30, 100, 1000))
	fb.DownlinkResource(2).Capacity = 12
	a := fb.Transfer(0, 1, 180, nil)
	b := fb.Transfer(0, 2, 120, nil)
	if err := fb.CheckMaxMin(); err != nil {
		t.Fatalf("max-min allocation rejected: %v", err)
	}
	a.rate, b.rate = 19, 12 // up0 carries 31 of 30
	if err := fb.CheckMaxMin(); err == nil {
		t.Fatal("overloaded uplink accepted")
	}
	a.rate, b.rate = 17, 12 // up0 has 1 B/s spare that a could take
	if err := fb.CheckMaxMin(); err == nil {
		t.Fatal("flow below its fair share accepted")
	}
	a.rate, b.rate = 20, 10 // b: its only saturated resource carries a faster flow
	if err := fb.CheckMaxMin(); err == nil {
		t.Fatal("flow with a faster flow on every saturated resource accepted")
	}
}

// TestSameInstantActivationsRefillOnce pins the deferred refill: k flows
// whose setup latency ends at one instant cost one progressive-filling
// pass, a clean fabric's readers cost none, and changes made in one event
// cost one more.
func TestSameInstantActivationsRefillOnce(t *testing.T) {
	eng := event.NewEngine()
	fb := NewFabric(eng, 4, Config{UplinkBps: 100, DownlinkBps: 100, DiskBps: 100, LatencySec: 1})
	const k = 6
	var flows []*Flow
	for i := 0; i < k; i++ {
		flows = append(flows, fb.Transfer(i%4, (i+1)%4, 1000, nil))
	}
	eng.RunUntil(1)
	if fb.ActiveFlows() != k || fb.Changes != k || fb.Refills != 1 {
		t.Fatalf("after %d activations at one instant: active=%d changes=%d refills=%d, want %d, %d, 1",
			k, fb.ActiveFlows(), fb.Changes, fb.Refills, k, k)
	}
	if err := fb.CheckMaxMin(); err != nil {
		t.Fatal(err)
	}
	fb.Flows()
	fb.Utilization(fb.UplinkResource(0))
	if fb.Refills != 1 {
		t.Fatalf("readers of a clean fabric refilled: refills=%d, want 1", fb.Refills)
	}
	eng.Schedule(0.5, func() {
		fb.Cancel(flows[0])
		fb.Cancel(flows[1])
		fb.ScaleLinks(2, 0.5)
	})
	eng.RunUntil(2)
	if fb.Changes != k+3 || fb.Refills != 2 {
		t.Fatalf("after three changes in one event: changes=%d refills=%d, want %d and 2", fb.Changes, fb.Refills, k+3)
	}
	// A reader that finds the fabric dirty refills at once.
	fb.Cancel(flows[2])
	if got := fb.Flows(); len(got) != k-3 || fb.Refills != 3 {
		t.Fatalf("Flows after a cancel: %d flows, refills=%d; want %d and 3", len(got), fb.Refills, k-3)
	}
	eng.RunUntil(3)
	if fb.Refills != 3 {
		t.Fatalf("the engine refilled a fabric its reader had flushed: refills=%d, want 3", fb.Refills)
	}
}

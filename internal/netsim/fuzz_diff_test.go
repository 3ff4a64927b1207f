package netsim

import (
	"math"
	"testing"

	"repro/internal/event"
)

// FuzzFabricEquivalence is the gate on the incremental refill: it decodes
// arbitrary bytes into a sequence of fabric operations, applies each to a
// Fabric and to refFabric (the map-and-sort fabric frozen in
// reference_test.go) on separate engines, advances both clocks together,
// and after every step requires the same active flows with bit-identical
// Rate() and Remaining(), the same completions in the same order, and a
// passing CheckMaxMin. Operations cover every flow kind (disk and memory
// tiers, capped and uncapped remote reads, transfers), cancels, link and
// disk scaling, partitions and heals, with and without setup latency. Run
// with `go test -fuzz=FuzzFabricEquivalence` for continuous fuzzing; seeds
// run under plain `go test`.
func FuzzFabricEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 2, 3, 0, 2, 0, 1, 3, 2, 1, 0, 4, 8, 1, 9, 2, 1, 1, 2})
	f.Add([]byte{3, 1, 2, 1, 1, 0, 1, 2, 1, 3, 1, 2, 1, 0, 2, 4, 6, 0, 3, 1, 8, 2, 2, 1, 2, 5, 7, 3, 0, 4, 8, 3})
	f.Add([]byte{4, 2, 0, 3, 2, 1, 2, 2, 3, 3, 2, 0, 1, 2, 1, 0, 3, 4, 0, 2, 6, 1, 5, 8, 4, 1, 0, 3, 3, 0, 7, 8, 2})
	f.Add([]byte{5, 1, 1, 0, 6, 1, 2, 1, 1, 0, 3, 3, 1, 1, 3, 0, 1, 2, 2, 2, 1, 1, 2, 3, 0, 1, 8, 4, 9, 9, 9, 9})
	f.Add([]byte{
		1, 0, 1, 2, 3, 4, 2, 1, 0, 5, 1, 0, 1, 2, 0, 0, 2, 1, 3, 3, 2, 3, 2, 1, 1, 0, 4, 6, 1, 0, 8, 3,
		0, 1, 1, 1, 0, 2, 3, 2, 5, 4, 1, 3, 0, 3, 4, 1, 7, 8, 1, 2, 2, 2, 0, 1, 3, 1, 0, 2, 8, 2, 9, 9,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(mod int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v % mod
		}
		caps := []float64{10, 25, 40, 100, 333}
		sizes := []float64{0, 1, 50, 100, 333, 1e4}
		n := next(4) + 2
		cfg := Config{
			UplinkBps:   caps[next(len(caps))],
			DownlinkBps: caps[next(len(caps))],
			DiskBps:     caps[next(len(caps))],
			MemoryBps:   []float64{0, 60, 1e3}[next(3)],
			LatencySec:  []float64{0, 0.25, 1}[next(3)],
		}
		engA, engB := event.NewEngine(), event.NewEngine()
		fb, ref := NewFabric(engA, n, cfg), newRefFabric(engB, n, cfg)
		var got, want []*Flow // every flow started, in start order
		var gotDone, wantDone []int64
		doneA := func(id int64) func() { return func() { gotDone = append(gotDone, id) } }
		doneB := func(id int64) func() { return func() { wantDone = append(wantDone, id) } }

		check := func(step int, op string) {
			t.Helper()
			if engA.Now() != engB.Now() {
				t.Fatalf("step %d (%s): clocks diverge: %v vs %v", step, op, engA.Now(), engB.Now())
			}
			a, b := fb.Flows(), ref.sortedFlows()
			if len(a) != len(b) {
				t.Fatalf("step %d (%s): %d active flows, reference has %d", step, op, len(a), len(b))
			}
			for i := range a {
				if a[i].ID != b[i].ID ||
					math.Float64bits(a[i].Rate()) != math.Float64bits(b[i].Rate()) ||
					math.Float64bits(a[i].Remaining()) != math.Float64bits(b[i].Remaining()) {
					t.Fatalf("step %d (%s): flow %d rate %v remaining %v; reference flow %d rate %v remaining %v",
						step, op, a[i].ID, a[i].Rate(), a[i].Remaining(), b[i].ID, b[i].Rate(), b[i].Remaining())
				}
			}
			if len(gotDone) != len(wantDone) {
				t.Fatalf("step %d (%s): completions %v, reference %v", step, op, gotDone, wantDone)
			}
			for i := range gotDone {
				if gotDone[i] != wantDone[i] {
					t.Fatalf("step %d (%s): completions %v, reference %v", step, op, gotDone, wantDone)
				}
			}
			if err := fb.CheckMaxMin(); err != nil {
				t.Fatalf("step %d (%s): %v", step, op, err)
			}
		}

		for step := 0; step < 80 && len(data) > 0; step++ {
			var op string
			switch next(10) {
			case 0:
				op = "local read"
				node, size, tier := next(n), sizes[next(len(sizes))], Tier(next(2))
				id := int64(len(got) + 1)
				got = append(got, fb.LocalReadTier(node, size, tier, doneA(id)))
				want = append(want, ref.LocalReadTier(node, size, tier, doneB(id)))
			case 1, 2:
				op = "remote read"
				src, dst, size := next(n), next(n), sizes[next(len(sizes))]
				capBps, tier := []float64{0, 0, 30, 100}[next(4)], Tier(next(2))
				id := int64(len(got) + 1)
				got = append(got, fb.RemoteReadCapTier(src, dst, size, capBps, tier, doneA(id)))
				want = append(want, ref.RemoteReadCapTier(src, dst, size, capBps, tier, doneB(id)))
			case 3:
				op = "transfer"
				src, dst, size := next(n), next(n), sizes[next(len(sizes))]
				id := int64(len(got) + 1)
				got = append(got, fb.Transfer(src, dst, size, doneA(id)))
				want = append(want, ref.Transfer(src, dst, size, doneB(id)))
			case 4:
				op = "cancel"
				if len(got) > 0 {
					i := next(len(got))
					fb.Cancel(got[i])
					ref.Cancel(want[i])
				}
			case 5:
				op = "scale links"
				node, factor := next(n), []float64{0.1, 0.5, 1, 2}[next(4)]
				fb.ScaleLinks(node, factor)
				ref.ScaleLinks(node, factor)
			case 6:
				op = "scale disk"
				node, factor := next(n), []float64{0.2, 1, 3}[next(3)]
				fb.ScaleDisk(node, factor)
				ref.ScaleDisk(node, factor)
			case 7:
				op = "partition"
				groups := make([]int, n)
				for i := range groups {
					groups[i] = next(2)
				}
				chokeBps := []float64{1, 20, 1e3}[next(3)]
				fb.SetPartition(groups, chokeBps)
				ref.SetPartition(groups, chokeBps)
			case 8:
				op = "heal"
				fb.ClearPartition()
				ref.ClearPartition()
			case 9:
				op = "advance"
				to := engA.Now() + []float64{0.1, 0.5, 1, 3.7, 40}[next(5)]
				engA.RunUntil(to)
				engB.RunUntil(to)
			}
			check(step, op)
		}
		engA.Run()
		engB.Run()
		check(-1, "drain")
		for i := range got {
			if got[i].Done() != want[i].Done() {
				t.Fatalf("flow %d: done=%v, reference done=%v", got[i].ID, got[i].Done(), want[i].Done())
			}
		}
	})
}

package scheduler

import (
	"slices"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/hdfs"
)

// mutLoc is a RackLocator whose replicas and racks a test can change
// between calls, the way node failures and re-replication change a
// NameNode's answers under a running scheduler.
type mutLoc struct {
	fakeLoc
	racks []int
}

func (m *mutLoc) Rack(node int) int { return m.racks[node] }

// plainLoc exposes only a Locator's methods, hiding mutLoc's racks, so
// Quincy sees no rack-local cost.
type plainLoc struct{ Locator }

// TestQuincyOfferSweepSolvesOnce: the driver offers every executor with a
// free slot; against an unchanged queue and view that is one solve, not
// one per offer.
func TestQuincyOfferSweepSolvesOnce(t *testing.T) {
	j, s := scaffold()
	c := mkCluster()
	for _, e := range c.Executors() {
		if err := c.Allocate(e, 0); err != nil {
			t.Fatal(err)
		}
	}
	loc := rackLoc{fakeLoc: fakeLoc{0: {0}}, rackSize: 2}
	q := NewQuincy(loc, func() []*cluster.Executor { return c.Owned(0) })
	t0 := mkInputTask(j, s, 0, 0, 0)
	q.Submit([]*app.Task{t0}, 0)
	for round := 0; round < 2; round++ {
		for n := 1; n < 4; n++ {
			if got := q.Offer(c.Node(n).Executors()[0], 0); got != nil {
				t.Fatalf("node %d took %v, planned onto node 0", n, got)
			}
		}
	}
	if q.solves != 1 {
		t.Fatalf("six declined offers ran %d solves, want 1", q.solves)
	}
	if got := q.Offer(c.Node(0).Executors()[0], 0); got != t0 {
		t.Fatalf("Offer(node0) = %v, want t0", got)
	}
	if q.solves != 1 {
		t.Fatalf("taking the planned task re-solved: %d solves", q.solves)
	}
	if q.held.g != nil || q.held.plan != nil {
		t.Fatal("drained queue still holds the network or plan")
	}
}

// FuzzQuincyEquivalence drives the replan-skipping Quincy and the frozen
// always-solve refQuincy through the same random Submit/Offer/Remove calls,
// executor allocate/release (view changes), replica and rack changes and
// cost changes. Offer and PendingTasks must agree at every step.
func FuzzQuincyEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 3, 1, 1, 1, 1, 2, 5, 1, 3, 3, 1, 2})
	f.Add([]byte{1, 1, 0, 7, 0, 0, 5, 1, 2, 1, 0, 6, 3, 1, 1, 1, 4, 0, 1, 2})
	f.Add([]byte{2, 0, 0, 2, 0, 5, 1, 4, 0, 1, 0, 2, 0, 7, 0, 1, 1, 2, 3, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		const nodes, blocks = 6, 4
		c := cluster.New(cluster.Config{
			Nodes:            nodes,
			ExecutorsPerNode: 1 + int(data[0])%2,
			SlotsPerExecutor: 1 + int(data[0]/2)%2,
		})
		ml := &mutLoc{fakeLoc: fakeLoc{}, racks: make([]int, nodes)}
		for n := range ml.racks {
			ml.racks[n] = n / 2
		}
		for b := 0; b < blocks; b++ {
			ml.fakeLoc[hdfs.BlockID(b)] = []int{b % nodes, (b + 3) % nodes}
		}
		var loc Locator = ml
		if data[1]%2 == 1 {
			loc = plainLoc{ml}
		}
		reversed := false
		view := func() []*cluster.Executor {
			es := c.Owned(0)
			if reversed {
				slices.Reverse(es)
			}
			return es
		}
		got := NewQuincy(loc, view)
		want := newRefQuincy(loc, view)
		j, s := scaffold()
		var made []*app.Task
		execs := c.Executors()
		for i := 2; i+1 < len(data); i += 2 {
			op, arg := data[i]%9, int(data[i+1])
			switch op {
			case 0: // submit one or two tasks
				var batch []*app.Task
				for k := 0; k <= arg%2 && len(made) < 24; k++ {
					var tk *app.Task
					if (arg/2)%3 == 0 {
						tk = mkShuffleTask(j, s, len(made), 0)
					} else {
						tk = mkInputTask(j, s, len(made), hdfs.BlockID((arg/6+k)%(blocks+1)), 0)
					}
					made = append(made, tk)
					batch = append(batch, tk)
				}
				got.Submit(batch, 0)
				want.Submit(batch, 0)
			case 1, 2: // offer
				e := execs[arg%len(execs)]
				g, w := got.Offer(e, 0), want.Offer(e, 0)
				if g != w {
					t.Fatalf("step %d: Offer(exec %d) = %v, reference %v", i, e.ID, g, w)
				}
			case 3: // remove, queued or not
				if len(made) == 0 {
					continue
				}
				tk := made[arg%len(made)]
				if g, w := got.Remove(tk), want.Remove(tk); g != w {
					t.Fatalf("step %d: Remove = %v, reference %v", i, g, w)
				}
			case 4: // allocate
				_ = c.Allocate(execs[arg%len(execs)], 0)
			case 5: // release
				_ = c.Release(execs[arg%len(execs)])
			case 6: // re-replicate a block
				b := hdfs.BlockID(arg % blocks)
				var locs []int
				for n := 0; n < nodes; n++ {
					if (arg/blocks)>>n&1 == 1 {
						locs = append(locs, n)
					}
				}
				ml.fakeLoc[b] = locs
			case 7: // move a node to another rack
				ml.racks[arg%nodes] = (arg / nodes) % 3
			case 8: // change a cost or the view order
				switch arg % 3 {
				case 0:
					reversed = !reversed
				case 1:
					got.RackCost = float64(arg % 12)
					want.RackCost = got.RackCost
				case 2:
					got.AnyCost = float64(arg%7 + 5)
					want.AnyCost = got.AnyCost
				}
			}
			if g, w := got.PendingTasks(), want.PendingTasks(); !slices.Equal(g, w) {
				t.Fatalf("step %d: pending %v, reference %v", i, g, w)
			}
		}
	})
}

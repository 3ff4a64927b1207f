package hdfs

import "testing"

// Regression: pickNodeOnRack ignored the suspended flag pickNode honors, so
// RackAwarePolicy could place replicas on flaking nodes.
func TestRackAwarePlacementSkipsSuspended(t *testing.T) {
	nn := newNN(t, 4, WithRacks(2), WithPolicy(RackAwarePolicy{}), WithBlockSize(100), WithReplication(3))
	nn.Suspend(2)
	nn.Suspend(3) // rack 1 is entirely suspended
	f, err := nn.Create("a", 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range f.Blocks {
		// Locations hides suspended nodes, so ask the DataNodes directly.
		for _, n := range []int{2, 3} {
			if nn.DataNode(n).Holds(b.ID) {
				t.Fatalf("block %d placed on suspended node %d", b.ID, n)
			}
		}
		if got := len(nn.Locations(b.ID)); got != 2 {
			t.Fatalf("block %d has %d live replicas, want 2 (both healthy nodes)", b.ID, got)
		}
	}
}

// Regression: PopularityPolicy truncated fractional weights, so weight 1.9
// earned the same zero extra replicas as weight 1.0. Weights round half-up.
func TestPopularityFractionalWeightRounds(t *testing.T) {
	p := &PopularityPolicy{Weights: map[string]float64{"warm": 1.9, "tepid": 1.4}, MaxExtra: 5}
	nn := newNN(t, 20, WithPolicy(p), WithBlockSize(100), WithReplication(3))
	warm, _ := nn.Create("warm", 100)
	if got := nn.ReplicaCount(warm.Blocks[0].ID); got != 4 {
		t.Fatalf("weight 1.9 block has %d replicas, want 4 (rounds up to 2 → 1 extra)", got)
	}
	tepid, _ := nn.Create("tepid", 100)
	if got := nn.ReplicaCount(tepid.Blocks[0].ID); got != 3 {
		t.Fatalf("weight 1.4 block has %d replicas, want 3 (rounds down to 1 → no extra)", got)
	}
}

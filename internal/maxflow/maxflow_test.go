package maxflow

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestMaxFlowTrivial(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 5, 0)
	if f := g.MaxFlow(0, 1); f != 5 {
		t.Fatalf("MaxFlow = %v, want 5", f)
	}
}

func TestMaxFlowSameSourceSink(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 5, 0)
	if f := g.MaxFlow(0, 0); f != 0 {
		t.Fatalf("MaxFlow(s,s) = %v", f)
	}
}

func TestMaxFlowClassic(t *testing.T) {
	// CLRS-style example.
	g := NewGraph(6)
	g.AddEdge(0, 1, 16, 0)
	g.AddEdge(0, 2, 13, 0)
	g.AddEdge(1, 2, 10, 0)
	g.AddEdge(2, 1, 4, 0)
	g.AddEdge(1, 3, 12, 0)
	g.AddEdge(3, 2, 9, 0)
	g.AddEdge(2, 4, 14, 0)
	g.AddEdge(4, 3, 7, 0)
	g.AddEdge(3, 5, 20, 0)
	g.AddEdge(4, 5, 4, 0)
	if f := g.MaxFlow(0, 5); f != 23 {
		t.Fatalf("MaxFlow = %v, want 23", f)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 10, 0)
	g.AddEdge(2, 3, 10, 0)
	if f := g.MaxFlow(0, 3); f != 0 {
		t.Fatalf("MaxFlow across disconnected graph = %v", f)
	}
}

func TestEdgeFlowAccessors(t *testing.T) {
	g := NewGraph(3)
	a := g.AddEdge(0, 1, 7, 0)
	b := g.AddEdge(1, 2, 4, 0)
	g.MaxFlow(0, 2)
	if g.Flow(a) != 4 || g.Flow(b) != 4 {
		t.Fatalf("edge flows = %v, %v, want 4, 4", g.Flow(a), g.Flow(b))
	}
}

func TestBipartiteViaMaxFlow(t *testing.T) {
	// 3 tasks, 3 executors; task i can go to executor i and (i+1)%3.
	// Perfect matching of size 3 exists.
	g := NewGraph(8) // 0 src, 1-3 tasks, 4-6 execs, 7 sink
	for i := 0; i < 3; i++ {
		g.AddEdge(0, 1+i, 1, 0)
		g.AddEdge(1+i, 4+i, 1, 0)
		g.AddEdge(1+i, 4+(i+1)%3, 1, 0)
		g.AddEdge(4+i, 7, 1, 0)
	}
	if f := g.MaxFlow(0, 7); f != 3 {
		t.Fatalf("matching size = %v, want 3", f)
	}
}

// Property: max-flow equals min-cut on random small graphs (verified by
// brute-force min-cut enumeration).
func TestQuickMaxFlowMinCut(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := rng.IntRange(2, 7)
		type edge struct {
			u, v int
			c    float64
		}
		var edges []edge
		m := rng.IntRange(1, 12)
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, edge{u, v, float64(rng.IntRange(0, 10))})
		}
		g := NewGraph(n)
		for _, e := range edges {
			g.AddEdge(e.u, e.v, e.c, 0)
		}
		s, t0 := 0, n-1
		got := g.MaxFlow(s, t0)
		// Brute-force min cut over all subsets containing s but not t.
		best := math.Inf(1)
		for mask := 0; mask < (1 << n); mask++ {
			if mask&(1<<s) == 0 || mask&(1<<t0) != 0 {
				continue
			}
			cut := 0.0
			for _, e := range edges {
				if mask&(1<<e.u) != 0 && mask&(1<<e.v) == 0 {
					cut += e.c
				}
			}
			if cut < best {
				best = cut
			}
		}
		return math.Abs(got-best) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMinCostFlowSimple(t *testing.T) {
	// Two parallel paths: cheap (cost 1, cap 2) and expensive (cost 5, cap 10).
	g := NewGraph(2)
	g.AddEdge(0, 1, 2, 1)
	g.AddEdge(0, 1, 10, 5)
	flow, cost := g.MinCostFlow(0, 1, 5)
	if flow != 5 {
		t.Fatalf("flow = %v, want 5", flow)
	}
	if cost != 2*1+3*5 {
		t.Fatalf("cost = %v, want 17", cost)
	}
}

func TestMinCostFlowPath(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 2, 1)
	g.AddEdge(0, 2, 1, 2)
	g.AddEdge(1, 3, 1, 3)
	g.AddEdge(1, 2, 1, 1)
	g.AddEdge(2, 3, 2, 1)
	flow, cost := g.MinCostFlow(0, 3, 3)
	if flow != 3 {
		t.Fatalf("flow = %v, want 3", flow)
	}
	// Cheapest: 0→1→2→3 (cost 3), 0→2→3 (cost 3), 0→1→3 (cost 4) = 10.
	if cost != 10 {
		t.Fatalf("cost = %v, want 10", cost)
	}
}

func TestMinCostFlowNegativeCosts(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1, -2)
	g.AddEdge(1, 2, 1, 1)
	g.AddEdge(0, 2, 1, 5)
	flow, cost := g.MinCostFlow(0, 2, 2)
	if flow != 2 {
		t.Fatalf("flow = %v, want 2", flow)
	}
	if cost != (-2+1)+5 {
		t.Fatalf("cost = %v, want 4", cost)
	}
}

func TestMinCostFlowAssignment(t *testing.T) {
	// 2 tasks × 2 executors assignment: costs [[1, 10], [10, 1]].
	// Min-cost perfect assignment = 2.
	g := NewGraph(6) // 0 src, 1-2 tasks, 3-4 execs, 5 sink
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(0, 2, 1, 0)
	g.AddEdge(1, 3, 1, 1)
	g.AddEdge(1, 4, 1, 10)
	g.AddEdge(2, 3, 1, 10)
	g.AddEdge(2, 4, 1, 1)
	g.AddEdge(3, 5, 1, 0)
	g.AddEdge(4, 5, 1, 0)
	flow, cost := g.MinCostFlow(0, 5, 2)
	if flow != 2 || cost != 2 {
		t.Fatalf("flow=%v cost=%v, want 2, 2", flow, cost)
	}
}

// Property: min-cost flow pushes the same total flow as max-flow, which
// ignores the edge costs.
func TestQuickMinCostMatchesMaxFlow(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := rng.IntRange(2, 7)
		type edge struct {
			u, v int
			c    float64
			w    float64
		}
		var edges []edge
		for i := 0; i < rng.IntRange(1, 12); i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, edge{u, v, float64(rng.IntRange(0, 8)), float64(rng.IntRange(0, 5))})
		}
		mf := NewGraph(n)
		mc := NewGraph(n)
		for _, e := range edges {
			mf.AddEdge(e.u, e.v, e.c, e.w)
			mc.AddEdge(e.u, e.v, e.c, e.w)
		}
		want := mf.MaxFlow(0, n-1)
		got, _ := mc.MinCostFlow(0, n-1, math.Inf(1))
		return math.Abs(got-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDinicBipartite(b *testing.B) {
	rng := xrand.New(11)
	const tasks, execs = 200, 200
	for i := 0; i < b.N; i++ {
		g := NewGraph(2 + tasks + execs)
		sink := 1 + tasks + execs
		for t := 0; t < tasks; t++ {
			g.AddEdge(0, 1+t, 1, 0)
			for _, e := range rng.Sample(execs, 3) {
				g.AddEdge(1+t, 1+tasks+e, 1, 0)
			}
		}
		for e := 0; e < execs; e++ {
			g.AddEdge(1+tasks+e, sink, 1, 0)
		}
		if g.MaxFlow(0, sink) == 0 {
			b.Fatal("no flow")
		}
	}
}

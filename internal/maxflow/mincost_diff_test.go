package maxflow

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// The min-cost differential battery checks the successive-shortest-path
// solver against a brute-force oracle that enumerates every integer flow on
// small DAGs (≤6 nodes, ≤8 edges, capacities ≤2, so at most 3^8 = 6561
// assignments). DAG edges (u < v) rule out cycles entirely, so negative
// costs — the regime the Quincy policy drives the solver in — are safe to
// generate without tripping the no-negative-cycle precondition.

// diffEdge is one generated edge of a differential instance.
type diffEdge struct {
	u, v int
	cap  int
	cost float64
}

// oracleFlows enumerates every feasible integer flow and returns
// costAt[f] = minimal cost of a flow of value exactly f, for f = 0..fmax.
func oracleFlows(n int, edges []diffEdge, s, t int) []float64 {
	costAt := []float64{0} // the zero flow always exists
	assign := make([]int, len(edges))
	var rec func(i int)
	rec = func(i int) {
		if i < len(edges) {
			for f := 0; f <= edges[i].cap; f++ {
				assign[i] = f
				rec(i + 1)
			}
			return
		}
		// Conservation at every node except s and t.
		net := make([]int, n)
		cost := 0.0
		for j, e := range edges {
			net[e.u] -= assign[j]
			net[e.v] += assign[j]
			cost += float64(assign[j]) * e.cost
		}
		for v := 0; v < n; v++ {
			if v != s && v != t && net[v] != 0 {
				return
			}
		}
		val := -net[s]
		if val < 0 {
			return
		}
		for len(costAt) <= val {
			costAt = append(costAt, math.Inf(1))
		}
		if cost < costAt[val] {
			costAt[val] = cost
		}
	}
	rec(0)
	return costAt
}

// genDiffInstance draws one small DAG instance.
func genDiffInstance(rng *xrand.Rand) (n int, edges []diffEdge) {
	n = rng.IntRange(2, 6)
	m := rng.IntRange(1, 8)
	for i := 0; i < m; i++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-1-u)
		edges = append(edges, diffEdge{
			u: u, v: v,
			cap:  rng.Intn(3),
			cost: float64(rng.IntRange(-4, 6)),
		})
	}
	return n, edges
}

// buildGraph loads the instance into a fresh solver graph, returning edge
// IDs.
func buildGraph(n int, edges []diffEdge) (*Graph, []int) {
	g := new(Graph)
	return g, loadGraph(g, n, edges)
}

// loadGraph resets g and loads the instance into it, returning edge IDs.
func loadGraph(g *Graph, n int, edges []diffEdge) []int {
	g.Reset(n)
	ids := make([]int, len(edges))
	for i, e := range edges {
		ids[i] = g.AddEdge(e.u, e.v, float64(e.cap), e.cost)
	}
	return ids
}

// checkFeasible verifies the solver's per-edge flows form a feasible flow
// of the returned value and cost.
func checkFeasible(t *testing.T, g *Graph, n int, edges []diffEdge, ids []int, s, tt int, flow, cost float64) {
	t.Helper()
	net := make([]float64, n)
	sum := 0.0
	for i, e := range edges {
		f := g.Flow(ids[i])
		if f < -1e-9 || f > float64(e.cap)+1e-9 {
			t.Fatalf("edge %d→%d flow %v outside [0, %d]", e.u, e.v, f, e.cap)
		}
		net[e.u] -= f
		net[e.v] += f
		sum += f * e.cost
	}
	for v := 0; v < n; v++ {
		if v != s && v != tt && math.Abs(net[v]) > 1e-9 {
			t.Fatalf("conservation violated at node %d: net %v", v, net[v])
		}
	}
	if math.Abs(-net[s]-flow) > 1e-9 {
		t.Fatalf("returned flow %v but edges carry %v out of the source", flow, -net[s])
	}
	if math.Abs(sum-cost) > 1e-9 {
		t.Fatalf("returned cost %v but edge flows cost %v", cost, sum)
	}
}

// sameFlows fails unless the reused graph routed exactly the flow a fresh
// graph routes on the same instance: state left over from earlier solves
// must not change a tie-break.
func sameFlows(t *testing.T, seed uint64, reused *Graph, ids []int, fresh *Graph, freshIDs []int) {
	t.Helper()
	for i := range ids {
		if r, f := reused.Flow(ids[i]), fresh.Flow(freshIDs[i]); r != f {
			t.Fatalf("seed %d: edge %d carries %v on the reused graph, %v on a fresh one", seed, i, r, f)
		}
	}
}

// TestMinCostFlowDifferential: MinCostFlow must push min(fmax, maxFlow)
// units at exactly the oracle's minimal cost for that value, both on a
// fresh graph and on one graph reused through Reset across all seeds.
func TestMinCostFlowDifferential(t *testing.T) {
	reused := new(Graph)
	for seed := uint64(1); seed <= 400; seed++ {
		rng := xrand.New(seed).Fork("mincost-diff")
		n, edges := genDiffInstance(rng)
		s, tt := 0, n-1
		maxFlow := rng.Intn(5)
		costAt := oracleFlows(n, edges, s, tt)

		wantFlow := len(costAt) - 1
		if maxFlow < wantFlow {
			wantFlow = maxFlow
		}
		for _, g := range []*Graph{new(Graph), reused} {
			ids := loadGraph(g, n, edges)
			flow, cost := g.MinCostFlow(s, tt, float64(maxFlow))
			if g == reused {
				fresh, freshIDs := buildGraph(n, edges)
				fresh.MinCostFlow(s, tt, float64(maxFlow))
				sameFlows(t, seed, g, ids, fresh, freshIDs)
			}
			if math.Abs(flow-float64(wantFlow)) > 1e-9 {
				t.Fatalf("seed %d: flow = %v, oracle says %d (n=%d edges=%+v maxFlow=%d)",
					seed, flow, wantFlow, n, edges, maxFlow)
			}
			if math.Abs(cost-costAt[wantFlow]) > 1e-9 {
				t.Fatalf("seed %d: cost = %v, oracle says %v (n=%d edges=%+v maxFlow=%d)",
					seed, cost, costAt[wantFlow], n, edges, maxFlow)
			}
			checkFeasible(t, g, n, edges, ids, s, tt, flow, cost)
		}
	}
}

// TestMinCostFlowImprovingDifferential: MinCostFlowImproving must return
// the cheapest flow of any value ≤ maxFlow — the quantity the Quincy
// policy's negated-benefit network relies on — on a fresh graph and on
// one graph reused through Reset.
func TestMinCostFlowImprovingDifferential(t *testing.T) {
	reused := new(Graph)
	for seed := uint64(1); seed <= 400; seed++ {
		rng := xrand.New(seed).Fork("mincost-diff-improving")
		n, edges := genDiffInstance(rng)
		s, tt := 0, n-1
		costAt := oracleFlows(n, edges, s, tt)

		want := 0.0
		for _, c := range costAt {
			if c < want {
				want = c
			}
		}
		for _, g := range []*Graph{new(Graph), reused} {
			ids := loadGraph(g, n, edges)
			flow, cost := g.MinCostFlowImproving(s, tt, math.Inf(1))
			if g == reused {
				fresh, freshIDs := buildGraph(n, edges)
				fresh.MinCostFlowImproving(s, tt, math.Inf(1))
				sameFlows(t, seed, g, ids, fresh, freshIDs)
			}
			if math.Abs(cost-want) > 1e-9 {
				t.Fatalf("seed %d: improving cost = %v, oracle says %v (n=%d edges=%+v)",
					seed, cost, want, n, edges)
			}
			checkFeasible(t, g, n, edges, ids, s, tt, flow, cost)
		}
	}
}

// FuzzMinCostFlow drives the same differential from fuzzer-chosen bytes, so
// the corpus can wander outside xrand's distribution.
func FuzzMinCostFlow(f *testing.F) {
	f.Add([]byte{3, 2, 0, 1, 2, 1, 1, 2, 1, 9})
	f.Add([]byte{5, 4, 0, 4, 2, 0, 1, 3, 1, 1, 2, 2, 2, 3, 0, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])%5
		maxFlow := int(data[1]) % 5
		var edges []diffEdge
		for i := 2; i+2 < len(data) && len(edges) < 8; i += 3 {
			u := int(data[i]) % (n - 1)
			v := u + 1 + int(data[i+1])%(n-1-u)
			edges = append(edges, diffEdge{
				u: u, v: v,
				cap:  int(data[i+2]) % 3,
				cost: float64(int(data[i+2]/3)%11 - 4),
			})
		}
		if len(edges) == 0 {
			return
		}
		s, tt := 0, n-1
		costAt := oracleFlows(n, edges, s, tt)

		g, ids := buildGraph(n, edges)
		flow, cost := g.MinCostFlow(s, tt, float64(maxFlow))
		wantFlow := len(costAt) - 1
		if maxFlow < wantFlow {
			wantFlow = maxFlow
		}
		if math.Abs(flow-float64(wantFlow)) > 1e-9 || math.Abs(cost-costAt[wantFlow]) > 1e-9 {
			t.Fatalf("flow=%v cost=%v, oracle wants flow=%d cost=%v (edges=%+v)",
				flow, cost, wantFlow, costAt[wantFlow], edges)
		}
		checkFeasible(t, g, n, edges, ids, s, tt, flow, cost)

		g2, ids2 := buildGraph(n, edges)
		flow2, cost2 := g2.MinCostFlowImproving(s, tt, math.Inf(1))
		want := 0.0
		for _, c := range costAt {
			if c < want {
				want = c
			}
		}
		if math.Abs(cost2-want) > 1e-9 {
			t.Fatalf("improving cost=%v, oracle wants %v (edges=%+v)", cost2, want, edges)
		}
		checkFeasible(t, g2, n, edges, ids2, s, tt, flow2, cost2)
	})
}

// TestReusedGraphMatchesFresh: on Quincy-shaped networks (source → tasks →
// executors → sink, costs drawn from three levels so ties abound) a graph
// reused through Reset across instances of varying size routes exactly the
// flow of a fresh graph.
func TestReusedGraphMatchesFresh(t *testing.T) {
	reused := new(Graph)
	for seed := uint64(1); seed <= 200; seed++ {
		rng := xrand.New(seed).Fork("reused-quincy")
		tasks, execs := rng.IntRange(1, 12), rng.IntRange(1, 6)
		sink := 1 + tasks + execs
		var edges []diffEdge
		for e := 0; e < execs; e++ {
			edges = append(edges, diffEdge{u: 1 + tasks + e, v: sink, cap: rng.IntRange(1, 2)})
		}
		for ti := 0; ti < tasks; ti++ {
			edges = append(edges, diffEdge{u: 0, v: 1 + ti, cap: 1})
			for e := 0; e < execs; e++ {
				cost := []float64{0, 2, 10}[rng.Intn(3)]
				edges = append(edges, diffEdge{u: 1 + ti, v: 1 + tasks + e, cap: 1, cost: cost})
			}
		}
		ids := loadGraph(reused, sink+1, edges)
		reused.MinCostFlow(0, sink, float64(tasks))
		fresh, freshIDs := buildGraph(sink+1, edges)
		fresh.MinCostFlow(0, sink, float64(tasks))
		sameFlows(t, seed, reused, ids, fresh, freshIDs)
	}
}

// Package maxflow implements the one flow network behind the paper's
// theoretical analysis (§III) and the Quincy-style comparators (§VII): a
// Graph with per-edge capacities and costs, solved either by Dinic's
// maximum-flow algorithm (which ignores costs) or by successive-shortest-path
// min-cost flow.
package maxflow

import "math"

// Graph is a flow network under construction. Nodes are dense ints; every
// edge carries a capacity and a cost.
type Graph struct {
	n     int
	head  []int
	next  []int
	to    []int
	cap   []float64
	cost  []float64
	level []int
	iter  []int
}

// NewGraph creates a flow network with n nodes and no edges.
func NewGraph(n int) *Graph {
	head := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	return &Graph{n: n, head: head}
}

// AddEdge adds a directed edge u→v with the given capacity and cost and
// returns its edge index; the reverse edge (capacity 0, cost −cost) is the
// returned index ^ 1. MaxFlow ignores costs. Costs may be negative only on
// edges never part of a residual cycle (the min-cost solver assumes no
// negative cycles).
func (g *Graph) AddEdge(u, v int, capacity, cost float64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic("maxflow: edge endpoint out of range")
	}
	if capacity < 0 {
		panic("maxflow: negative capacity")
	}
	id := len(g.to)
	g.to = append(g.to, v)
	g.cap = append(g.cap, capacity)
	g.cost = append(g.cost, cost)
	g.next = append(g.next, g.head[u])
	g.head[u] = id

	g.to = append(g.to, u)
	g.cap = append(g.cap, 0)
	g.cost = append(g.cost, -cost)
	g.next = append(g.next, g.head[v])
	g.head[v] = id + 1
	return id
}

// Flow returns the flow pushed through edge id (the reverse edge's residual).
func (g *Graph) Flow(id int) float64 { return g.cap[id^1] }

// eps is the tolerance below which a residual capacity counts as zero for
// float networks. Integer uses exact comparisons since values stay integral.
const eps = 1e-9

// MaxFlow computes the maximum s→t flow with Dinic's algorithm, ignoring
// edge costs. For integral capacities the result is integral (Dinic
// preserves integrality).
func (g *Graph) MaxFlow(s, t int) float64 {
	if s == t {
		return 0
	}
	total := 0.0
	for g.bfs(s, t) {
		for i := range g.iter {
			g.iter[i] = g.head[i]
		}
		for {
			f := g.dfs(s, t, math.Inf(1))
			if f <= eps {
				break
			}
			total += f
		}
	}
	return total
}

func (g *Graph) bfs(s, t int) bool {
	if g.level == nil {
		g.level = make([]int, g.n)
		g.iter = make([]int, g.n)
	}
	for i := range g.level {
		g.level[i] = -1
	}
	queue := make([]int, 0, g.n)
	g.level[s] = 0
	queue = append(queue, s)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for id := g.head[u]; id != -1; id = g.next[id] {
			v := g.to[id]
			if g.cap[id] > eps && g.level[v] < 0 {
				g.level[v] = g.level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return g.level[t] >= 0
}

func (g *Graph) dfs(u, t int, limit float64) float64 {
	if u == t {
		return limit
	}
	for ; g.iter[u] != -1; g.iter[u] = g.next[g.iter[u]] {
		id := g.iter[u]
		v := g.to[id]
		if g.cap[id] <= eps || g.level[v] != g.level[u]+1 {
			continue
		}
		f := g.dfs(v, t, math.Min(limit, g.cap[id]))
		if f > eps {
			g.cap[id] -= f
			g.cap[id^1] += f
			return f
		}
	}
	return 0
}

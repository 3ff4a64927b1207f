package maxflow

import (
	"container/heap"
	"math"
)

type pqItem struct {
	node int
	dist float64
}

type pq []pqItem

func (p pq) Len() int           { return len(p) }
func (p pq) Less(i, j int) bool { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() any          { old := *p; n := len(old); it := old[n-1]; *p = old[:n-1]; return it }

// MinCostFlow pushes up to maxFlow units from s to t minimizing total cost
// with successive shortest augmenting paths (Dijkstra + Johnson potentials).
// It returns the flow actually pushed and its cost. Initial negative edge
// costs are handled with one Bellman–Ford pass to seed the potentials.
func (g *Graph) MinCostFlow(s, t int, maxFlow float64) (flow, cost float64) {
	return g.minCostFlow(s, t, maxFlow, false)
}

// MinCostFlowImproving is MinCostFlow but stops as soon as the next
// augmenting path has non-negative cost: the result is the cheapest flow of
// any value ≤ maxFlow. With negated weights this solves maximum-weight
// matching under a cardinality budget (successive shortest paths find flows
// of value k that are optimal for each k, with monotonically non-decreasing
// path costs).
func (g *Graph) MinCostFlowImproving(s, t int, maxFlow float64) (flow, cost float64) {
	return g.minCostFlow(s, t, maxFlow, true)
}

func (g *Graph) minCostFlow(s, t int, maxFlow float64, improvingOnly bool) (flow, cost float64) {
	if s == t {
		return 0, 0
	}
	h := make([]float64, g.n) // potentials
	// Bellman–Ford to initialize potentials when negative costs exist.
	hasNeg := false
	for _, c := range g.cost {
		if c < 0 {
			hasNeg = true
			break
		}
	}
	if hasNeg {
		for i := range h {
			h[i] = math.Inf(1)
		}
		h[s] = 0
		for iter := 0; iter < g.n; iter++ {
			changed := false
			for u := 0; u < g.n; u++ {
				if math.IsInf(h[u], 1) {
					continue
				}
				for id := g.head[u]; id != -1; id = g.next[id] {
					if g.cap[id] > eps && h[u]+g.cost[id] < h[g.to[id]]-1e-12 {
						h[g.to[id]] = h[u] + g.cost[id]
						changed = true
					}
				}
			}
			if !changed {
				break
			}
		}
		for i := range h {
			if math.IsInf(h[i], 1) {
				h[i] = 0
			}
		}
	}

	dist := make([]float64, g.n)
	prevEdge := make([]int, g.n)
	for flow < maxFlow {
		// Dijkstra on reduced costs.
		for i := range dist {
			dist[i] = math.Inf(1)
			prevEdge[i] = -1
		}
		dist[s] = 0
		q := pq{{s, 0}}
		for len(q) > 0 {
			it := heap.Pop(&q).(pqItem)
			if it.dist > dist[it.node]+1e-12 {
				continue
			}
			u := it.node
			for id := g.head[u]; id != -1; id = g.next[id] {
				if g.cap[id] <= eps {
					continue
				}
				v := g.to[id]
				nd := dist[u] + g.cost[id] + h[u] - h[v]
				if nd < dist[v]-1e-12 {
					dist[v] = nd
					prevEdge[v] = id
					heap.Push(&q, pqItem{v, nd})
				}
			}
		}
		if math.IsInf(dist[t], 1) {
			break
		}
		if improvingOnly && dist[t]+h[t]-h[s] >= -1e-12 {
			break // the cheapest remaining path would not improve the cost
		}
		for i := range h {
			if !math.IsInf(dist[i], 1) {
				h[i] += dist[i]
			}
		}
		// Find bottleneck along the path.
		push := maxFlow - flow
		for v := t; v != s; {
			id := prevEdge[v]
			if g.cap[id] < push {
				push = g.cap[id]
			}
			v = g.to[id^1]
		}
		for v := t; v != s; {
			id := prevEdge[v]
			g.cap[id] -= push
			g.cap[id^1] += push
			cost += push * g.cost[id]
			v = g.to[id^1]
		}
		flow += push
	}
	return flow, cost
}

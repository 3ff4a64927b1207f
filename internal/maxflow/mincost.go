package maxflow

import "math"

type pqItem struct {
	node int
	dist float64
}

// pq is Dijkstra's binary min-heap on dist. push and pop repeat
// container/heap's sift steps exactly: equal keys must pop in
// container/heap's order, or min-cost tie-breaks, and with them Quincy
// plans, change.
type pq []pqItem

//custody:noalloc
func (p *pq) push(it pqItem) {
	*p = append(*p, it) //custody:ignore noalloc the heap lives on the Graph and reuses the capacity of earlier solves; growth stops once it has held the largest frontier
	h := *p
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

//custody:noalloc
func (p *pq) pop() pqItem {
	h := *p
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].dist < h[j].dist {
			j = r
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*p = h[:n]
	return h[n]
}

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
	g.h = resize(g.h, g.n)
	h := g.h // potentials
	clear(h)
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

	g.dist = resize(g.dist, g.n)
	g.prevEdge = resize(g.prevEdge, g.n)
	dist, prevEdge := g.dist, g.prevEdge
	for flow < maxFlow {
		// Dijkstra on reduced costs.
		for i := range dist {
			dist[i] = math.Inf(1)
			prevEdge[i] = -1
		}
		dist[s] = 0
		q := &g.pq // empty: every Dijkstra pass drains it
		q.push(pqItem{s, 0})
		for len(*q) > 0 {
			it := q.pop()
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
					q.push(pqItem{v, nd})
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

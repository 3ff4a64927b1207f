package maxflow

import (
	"container/heap"
	"testing"

	"repro/internal/xrand"
)

// boxedPQ is the Dijkstra heap as it stood on container/heap, kept as the
// oracle for pq's pop order.
type boxedPQ []pqItem

func (p boxedPQ) Len() int           { return len(p) }
func (p boxedPQ) Less(i, j int) bool { return p[i].dist < p[j].dist }
func (p boxedPQ) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *boxedPQ) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *boxedPQ) Pop() any {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// TestHeapMatchesContainerHeap: random push/pop sequences over a handful of
// distinct keys (so most comparisons tie) pop the same items, node IDs
// included, in the same order from pq as from container/heap. Equal keys
// popping in the same order is what keeps min-cost tie-breaks, and with
// them every Quincy plan, unchanged.
func TestHeapMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := xrand.New(seed).Fork("heap-order")
		var got pq
		var want boxedPQ
		keys := 1 + rng.Intn(4)
		for step := 0; step < 400; step++ {
			if len(got) == 0 || rng.Intn(3) > 0 {
				it := pqItem{node: step, dist: float64(rng.Intn(keys))}
				got.push(it)
				heap.Push(&want, it)
				continue
			}
			g, w := got.pop(), heap.Pop(&want).(pqItem)
			if g != w {
				t.Fatalf("seed %d step %d: pop = %+v, container/heap pops %+v", seed, step, g, w)
			}
		}
		for len(got) > 0 {
			if g, w := got.pop(), heap.Pop(&want).(pqItem); g != w {
				t.Fatalf("seed %d drain: pop = %+v, container/heap pops %+v", seed, g, w)
			}
		}
		if want.Len() != 0 {
			t.Fatalf("seed %d: container/heap still holds %d items", seed, want.Len())
		}
	}
}

// TestWarmResolveAllocatesNothing: rebuilding a network on a Graph through
// Reset and solving it again allocates nothing once the Graph has solved a
// network of that size, for both solvers (MinCostFlowImproving's negative
// costs take the Bellman–Ford path).
func TestWarmResolveAllocatesNothing(t *testing.T) {
	rng := xrand.New(3).Fork("warm-resolve")
	const tasks, execs = 12, 5
	costs := make([]float64, tasks*execs)
	for i := range costs {
		costs[i] = float64(rng.Intn(3) * 5)
	}
	g := new(Graph)
	build := func(sign float64) {
		sink := 1 + tasks + execs
		g.Reset(sink + 1)
		for e := 0; e < execs; e++ {
			g.AddEdge(1+tasks+e, sink, 2, 0)
		}
		for ti := 0; ti < tasks; ti++ {
			g.AddEdge(0, 1+ti, 1, 0)
			for e := 0; e < execs; e++ {
				g.AddEdge(1+ti, 1+tasks+e, 1, sign*costs[ti*execs+e])
			}
		}
	}
	solve := func() {
		build(1)
		g.MinCostFlow(0, 1+tasks+execs, tasks)
		build(-1)
		g.MinCostFlowImproving(0, 1+tasks+execs, tasks)
	}
	solve() // warm the storage
	if a := testing.AllocsPerRun(20, solve); a != 0 {
		t.Fatalf("warm re-solve allocates %v times per run, want 0", a)
	}
}

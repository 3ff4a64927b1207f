package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// LocalityNetwork is the §III-B flow network (Fig. 2): one source per
// application with demand τ_i, an intermediate node per input task and per
// executor, unit-capacity edges task→executor wherever the executor's node
// stores the task's block, executor→sink edges of capacity Slots, and a
// common virtual sink.
type LocalityNetwork struct {
	Apps      []NetworkApp
	Executors []ExecInfo
	// Edges lists (taskIndex, executorIndex) pairs; task indices are global
	// across applications in app order.
	Edges [][2]int
	// TaskOwner maps global task index → application index.
	TaskOwner []int
	// TaskLabels are human-readable task names for rendering.
	TaskLabels []string

	// edgeStart[ti] is the offset of task ti's first edge in Edges; the
	// final entry is len(Edges).
	edgeStart []int
}

// NetworkApp is one commodity of the concurrent-flow instance.
type NetworkApp struct {
	App    int
	Demand int // τ_i: the number of input tasks
}

// BuildLocalityNetwork constructs the Fig. 2 network from demands and idle
// executors. It is the one place that derives task→executor locality edges:
// FractionalMaxMin and OptimalIntraObjective solve this instance, and it is
// exposed for inspection, testing, and rendering.
func BuildLocalityNetwork(apps []AppDemand, idle []ExecInfo) *LocalityNetwork {
	net := &LocalityNetwork{Executors: append([]ExecInfo(nil), idle...)}
	execsByNode := map[int][]int{}
	for i, e := range idle {
		execsByNode[e.Node] = append(execsByNode[e.Node], i)
	}
	for ai, a := range apps {
		demand := 0
		for _, j := range a.Jobs {
			demand += len(j.Tasks)
		}
		net.Apps = append(net.Apps, NetworkApp{App: a.App, Demand: demand})
		for _, j := range a.Jobs {
			for _, t := range j.Tasks {
				ti := len(net.TaskOwner)
				net.TaskOwner = append(net.TaskOwner, ai)
				net.TaskLabels = append(net.TaskLabels,
					fmt.Sprintf("A%d/J%d/T%d", a.App, j.Job, t.Task))
				net.edgeStart = append(net.edgeStart, len(net.Edges))
				for k, n := range t.Nodes {
					if slices.Contains(t.Nodes[:k], n) {
						continue // duplicate replica entry
					}
					for _, ei := range execsByNode[n] {
						net.Edges = append(net.Edges, [2]int{ti, ei})
					}
				}
			}
		}
	}
	net.edgeStart = append(net.edgeStart, len(net.Edges))
	return net
}

// taskEdges returns task ti's (task, executor) edges in insertion order.
func (n *LocalityNetwork) taskEdges(ti int) [][2]int {
	return n.Edges[n.edgeStart[ti]:n.edgeStart[ti+1]]
}

// Tasks returns the number of task nodes.
func (n *LocalityNetwork) Tasks() int { return len(n.TaskOwner) }

// DOT renders the network in Graphviz format, grouping tasks under their
// application sources — a faithful rendering of the paper's Fig. 2.
func (n *LocalityNetwork) DOT() string {
	var b strings.Builder
	b.WriteString("digraph locality {\n  rankdir=LR;\n  node [shape=circle];\n")
	b.WriteString("  sink [shape=doublecircle,label=\"sink\"];\n")
	for ai, a := range n.Apps {
		fmt.Fprintf(&b, "  app%d [shape=box,label=\"A%d\\ndemand=%d\"];\n", ai, a.App, a.Demand)
	}
	for ti, label := range n.TaskLabels {
		fmt.Fprintf(&b, "  t%d [label=\"%s\"];\n", ti, label)
		fmt.Fprintf(&b, "  app%d -> t%d [label=\"1\"];\n", n.TaskOwner[ti], ti)
	}
	for ei, e := range n.Executors {
		fmt.Fprintf(&b, "  e%d [shape=square,label=\"E%d@n%d\"];\n", ei, e.ID, e.Node)
		fmt.Fprintf(&b, "  e%d -> sink [label=\"%d\"];\n", ei, e.slots())
	}
	edges := append([][2]int(nil), n.Edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "  t%d -> e%d;\n", e[0], e[1])
	}
	b.WriteString("}\n")
	return b.String()
}

// Degree returns per-task edge counts — tasks with zero degree can never be
// local under the current replica placement and executor pool.
func (n *LocalityNetwork) Degree() []int {
	deg := make([]int, n.Tasks())
	for _, e := range n.Edges {
		deg[e[0]]++
	}
	return deg
}

// UnservableTasks returns the labels of tasks with no locality option.
func (n *LocalityNetwork) UnservableTasks() []string {
	var out []string
	for ti, d := range n.Degree() {
		if d == 0 {
			out = append(out, n.TaskLabels[ti])
		}
	}
	return out
}

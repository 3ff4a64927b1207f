package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hdfs"
	"repro/internal/xrand"
)

func fig2Instance() ([]AppDemand, []ExecInfo) {
	// The paper's Fig. 2: A1 with tasks T1, T2; A2 with task T21; three
	// executors.
	apps := []AppDemand{
		{App: 1, Budget: 3, Jobs: []JobDemand{{Job: 1, Tasks: []TaskDemand{
			task(1, 0, 0),
			task(2, 1, 0, 1),
		}}}},
		{App: 2, Budget: 3, Jobs: []JobDemand{{Job: 1, Tasks: []TaskDemand{
			task(1, 2, 1, 2),
		}}}},
	}
	idle := []ExecInfo{{ID: 0, Node: 0}, {ID: 1, Node: 1}, {ID: 2, Node: 2}}
	return apps, idle
}

func TestBuildLocalityNetworkStructure(t *testing.T) {
	apps, idle := fig2Instance()
	net := BuildLocalityNetwork(apps, idle)
	if len(net.Apps) != 2 {
		t.Fatalf("apps = %d", len(net.Apps))
	}
	if net.Apps[0].Demand != 2 || net.Apps[1].Demand != 1 {
		t.Fatalf("demands = %+v (Fig. 2: demand1=2, demand2=1)", net.Apps)
	}
	if net.Tasks() != 3 {
		t.Fatalf("tasks = %d", net.Tasks())
	}
	// T1 → E0; T2 → E0, E1; T21 → E1, E2.
	if len(net.Edges) != 5 {
		t.Fatalf("edges = %d, want 5: %v", len(net.Edges), net.Edges)
	}
	if net.TaskOwner[0] != 0 || net.TaskOwner[2] != 1 {
		t.Fatalf("task owners = %v", net.TaskOwner)
	}
}

func TestNetworkDegreeAndUnservable(t *testing.T) {
	apps := []AppDemand{{App: 0, Budget: 1, Jobs: []JobDemand{{Job: 1, Tasks: []TaskDemand{
		task(1, 0, 0),
		task(2, 1, 9), // replica on a node with no idle executor
	}}}}}
	idle := []ExecInfo{{ID: 0, Node: 0}}
	net := BuildLocalityNetwork(apps, idle)
	deg := net.Degree()
	if deg[0] != 1 || deg[1] != 0 {
		t.Fatalf("degrees = %v", deg)
	}
	uns := net.UnservableTasks()
	if len(uns) != 1 || !strings.Contains(uns[0], "T2") {
		t.Fatalf("unservable = %v", uns)
	}
}

func TestNetworkDOT(t *testing.T) {
	apps, idle := fig2Instance()
	dot := BuildLocalityNetwork(apps, idle).DOT()
	for _, want := range []string{
		"digraph locality", "sink", "demand=2", "demand=1",
		"app0 -> t0", "t0 -> e0", "e2 -> sink",
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Deterministic output.
	if dot != BuildLocalityNetwork(apps, idle).DOT() {
		t.Fatal("DOT output not deterministic")
	}
}

func TestNetworkMatchesFractionalSolver(t *testing.T) {
	// The network's structure must agree with what FractionalMaxMin solves:
	// in the Fig. 2 instance everyone can be satisfied (λ* = 1).
	apps, idle := fig2Instance()
	if got := FractionalMaxMin(apps, idle, 1e-3); got != 1 {
		t.Fatalf("fig. 2 instance λ* = %v, want 1", got)
	}
	net := BuildLocalityNetwork(apps, idle)
	if len(net.UnservableTasks()) != 0 {
		t.Fatal("fig. 2 instance has unservable tasks")
	}
}

func TestNetworkMultiSlotExecutorCapacity(t *testing.T) {
	apps := []AppDemand{{App: 0, Budget: 1, Jobs: []JobDemand{{Job: 1, Tasks: []TaskDemand{
		task(1, 0, 0),
	}}}}}
	idle := []ExecInfo{{ID: 0, Node: 0, Slots: 4}}
	dot := BuildLocalityNetwork(apps, idle).DOT()
	if !strings.Contains(dot, "e0 -> sink [label=\"4\"]") {
		t.Fatalf("multi-slot capacity missing from DOT:\n%s", dot)
	}
}

func TestFractionalMaxMinCountsSlots(t *testing.T) {
	// One executor with 4 slots on node 0 and 4 tasks whose blocks sit on
	// node 0: Allocate makes all 4 local, so the bound must be 1, not the
	// 1/4 a unit executor→sink capacity would give.
	apps := []AppDemand{{App: 0, Budget: 1, Jobs: []JobDemand{{Job: 1, Tasks: []TaskDemand{
		task(1, 0, 0), task(2, 1, 0), task(3, 2, 0), task(4, 3, 0),
	}}}}}
	idle := []ExecInfo{{ID: 0, Node: 0, Slots: 4}}
	if got := FractionalMaxMin(apps, idle, 1e-4); got != 1 {
		t.Fatalf("λ* = %v, want 1", got)
	}
	if local := Allocate(apps, idle, Options{}).LocalCount(); local != 4 {
		t.Fatalf("Allocate made %d tasks local, want 4", local)
	}
}

func TestFractionalMaxMinPerfect(t *testing.T) {
	// The Fig. 1 example: two apps with two tasks each on four executors,
	// disjoint replicas — every task can be local (λ* = 1).
	apps := []AppDemand{
		{App: 1, Budget: 2, Jobs: []JobDemand{{Job: 1, Tasks: []TaskDemand{task(1, 0, 0), task(2, 1, 1)}}}},
		{App: 2, Budget: 2, Jobs: []JobDemand{{Job: 2, Tasks: []TaskDemand{task(1, 2, 2), task(2, 3, 3)}}}},
	}
	if got := FractionalMaxMin(apps, execs(4), 1e-4); got != 1 {
		t.Fatalf("λ* = %v, want 1", got)
	}
}

func TestFractionalMaxMinContended(t *testing.T) {
	// Two apps, one task each, both only local to the single executor:
	// fractionally each gets half (λ* = 1/2).
	apps := []AppDemand{
		{App: 1, Budget: 1, Jobs: []JobDemand{{Job: 1, Tasks: []TaskDemand{task(1, 0, 0)}}}},
		{App: 2, Budget: 1, Jobs: []JobDemand{{Job: 2, Tasks: []TaskDemand{task(1, 1, 0)}}}},
	}
	if got := FractionalMaxMin(apps, execs(1), 1e-4); math.Abs(got-0.5) > 1e-3 {
		t.Fatalf("λ* = %v, want 0.5", got)
	}
}

func TestFractionalMaxMinZeroDemand(t *testing.T) {
	apps := []AppDemand{{App: 1, Budget: 1}, {App: 2, Budget: 1}}
	if got := FractionalMaxMin(apps, execs(2), 1e-4); got != 1 {
		t.Fatalf("λ* with no demand = %v, want 1", got)
	}
}

// Property: the fractional bound is monotone — widening a task's replica
// set to every node never lowers it.
func TestQuickFractionalMaxMinMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		nodes := rng.IntRange(2, 6)
		idle := execs(nodes)
		var apps []AppDemand
		for a := 0; a < rng.IntRange(1, 3); a++ {
			jd := JobDemand{Job: a}
			for k := 0; k < rng.IntRange(1, 4); k++ {
				jd.Tasks = append(jd.Tasks, TaskDemand{
					Task: k, Block: hdfs.BlockID(a*10 + k),
					Nodes: rng.Sample(nodes, rng.IntRange(1, 2)),
				})
			}
			apps = append(apps, AppDemand{App: a, Budget: nodes, Jobs: []JobDemand{jd}})
		}
		base := FractionalMaxMin(apps, idle, 1e-3)
		ai := rng.Intn(len(apps))
		tasks := append([]TaskDemand(nil), apps[ai].Jobs[0].Tasks...)
		all := make([]int, nodes)
		for n := range all {
			all[n] = n
		}
		tasks[rng.Intn(len(tasks))].Nodes = all
		wider := append([]AppDemand(nil), apps...)
		wider[ai].Jobs = []JobDemand{{Job: ai, Tasks: tasks}}
		return FractionalMaxMin(wider, idle, 1e-3)+5e-3 >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

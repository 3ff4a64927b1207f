package core

import "repro/internal/maxflow"

// IntraObjective is the §IV-B objective value of an intra-application
// allocation: Σ 1/µ_ij over locally-satisfied tasks, i.e. the (fractional)
// number of local jobs when each local task contributes 1/µ of a job.
func IntraObjective(jobs []JobDemand, localTasksPerJob map[int]int) float64 {
	total := 0.0
	for _, j := range jobs {
		if len(j.Tasks) == 0 {
			continue
		}
		total += float64(localTasksPerJob[j.Job]) / float64(len(j.Tasks))
	}
	return total
}

// GreedyIntraObjective runs Algorithm 2's greedy (as a standalone budgeted
// matching, without the inter-app interleaving) and returns its objective
// value and the number of fully local jobs. Used by the ablation comparing
// the 2-approximation against the exact optimum.
func GreedyIntraObjective(jobs []JobDemand, idle []ExecInfo, budget int) (objective float64, localJobs int) {
	apps := []AppDemand{{App: 0, Budget: budget, Jobs: jobs}}
	plan := Allocate(apps, idle, Options{FillToBudget: false})
	perJob := map[int]int{}
	for _, a := range plan.Assignments {
		if a.Local {
			perJob[a.Job]++
		}
	}
	for _, j := range jobs {
		if len(j.Tasks) > 0 && perJob[j.Job] == len(j.Tasks) {
			localJobs++
		}
	}
	return IntraObjective(jobs, perJob), localJobs
}

// OptimalIntraObjective solves the constrained bipartite matching problem of
// Eq. (9)–(10) exactly with a min-cost flow of value at most budget over the
// task→executor edges of BuildLocalityNetwork: each task edge weighs 1/µ_ij,
// and each executor takes one task (Eq. 10's one-task-per-executor
// capacity, whatever its Slots). Successive shortest paths are pushed only
// while they improve the objective, so the result is the maximum-weight
// matching of cardinality ≤ budget.
func OptimalIntraObjective(jobs []JobDemand, idle []ExecInfo, budget int) float64 {
	if len(idle) == 0 || budget <= 0 {
		return 0
	}
	net := BuildLocalityNetwork([]AppDemand{{Jobs: jobs}}, idle)
	if net.Tasks() == 0 {
		return 0
	}
	// Node layout: 0 source, 1..nTasks tasks, then executors, then sink.
	execBase := 1 + net.Tasks()
	sink := execBase + len(idle)
	g := maxflow.NewGraph(sink + 1)
	for i := range idle {
		g.AddEdge(execBase+i, sink, 1, 0)
	}
	ti := 0
	for _, j := range jobs {
		w := 1.0 / float64(len(j.Tasks))
		for range j.Tasks {
			g.AddEdge(0, 1+ti, 1, 0)
			for _, e := range net.taskEdges(ti) {
				g.AddEdge(1+ti, execBase+e[1], 1, -w)
			}
			ti++
		}
	}
	_, cost := g.MinCostFlowImproving(0, sink, float64(budget))
	return -cost
}

// FractionalMaxMin computes the LP-relaxed maximum concurrent flow bound on
// the max-min fraction of local tasks across applications (§III-B): no
// allocation, integral or not, can give every application a larger fraction
// simultaneously. It binary-searches the largest λ ∈ [0,1] (within tol) for
// which BuildLocalityNetwork's instance, with a super-source edge of
// capacity λ·τ_i into each application and executor→sink capacity Slots,
// routes every scaled demand. The commodities use disjoint task nodes, so
// each probe is a single-commodity max-flow.
func FractionalMaxMin(apps []AppDemand, idle []ExecInfo, tol float64) float64 {
	if tol <= 0 {
		tol = 1e-4
	}
	net := BuildLocalityNetwork(apps, idle)
	total := 0.0
	for _, a := range net.Apps {
		total += float64(a.Demand)
	}
	if total == 0 {
		return 1
	}
	// Node layout: 0 super source, 1..A app sources, then one node per
	// task, then one per executor, then the sink.
	taskBase := 1 + len(net.Apps)
	execBase := taskBase + net.Tasks()
	sink := execBase + len(net.Executors)
	feasible := func(lambda float64) bool {
		g := maxflow.NewGraph(sink + 1)
		want := 0.0
		ti := 0
		for ai, a := range net.Apps {
			d := float64(a.Demand) * lambda
			g.AddEdge(0, 1+ai, d, 0)
			want += d
			for ; ti < net.Tasks() && net.TaskOwner[ti] == ai; ti++ {
				g.AddEdge(1+ai, taskBase+ti, 1, 0)
				for _, e := range net.taskEdges(ti) {
					g.AddEdge(taskBase+ti, execBase+e[1], 1, 0)
				}
			}
		}
		for ei, e := range net.Executors {
			g.AddEdge(execBase+ei, sink, float64(e.slots()), 0)
		}
		return g.MaxFlow(0, sink)+1e-7 >= want
	}
	if feasible(1) {
		return 1
	}
	lo, hi := 0.0, 1.0
	for hi-lo > tol {
		mid := (lo + hi) / 2
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

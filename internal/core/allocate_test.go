package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hdfs"
	"repro/internal/xrand"
)

// execs builds one idle executor per node 0..n-1 with matching IDs.
func execs(n int) []ExecInfo {
	out := make([]ExecInfo, n)
	for i := range out {
		out[i] = ExecInfo{ID: i, Node: i}
	}
	return out
}

func task(id int, block hdfs.BlockID, nodes ...int) TaskDemand {
	return TaskDemand{Task: id, Block: block, Nodes: nodes}
}

// TestFig1MotivatingExample reproduces §II-B / Fig. 1: four workers each
// storing one block, two applications with one job of two tasks each. A
// data-aware allocation gives both applications 100% locality.
func TestFig1MotivatingExample(t *testing.T) {
	apps := []AppDemand{
		{App: 1, Budget: 2, Jobs: []JobDemand{
			{Job: 11, Tasks: []TaskDemand{task(1, 0, 0), task(2, 1, 1)}},
		}},
		{App: 2, Budget: 2, Jobs: []JobDemand{
			{Job: 21, Tasks: []TaskDemand{task(1, 2, 2), task(2, 3, 3)}},
		}},
	}
	plan := Allocate(apps, execs(4), DefaultOptions())
	if len(plan.Assignments) != 4 {
		t.Fatalf("assigned %d executors, want 4", len(plan.Assignments))
	}
	if plan.LocalCount() != 4 {
		t.Fatalf("local assignments = %d, want 4 (perfect locality)", plan.LocalCount())
	}
	byApp := plan.ByApp()
	wantApp1 := map[int]bool{0: true, 1: true}
	for _, e := range byApp[1] {
		if !wantApp1[e] {
			t.Fatalf("app 1 received executor %d, want {E0,E1}", e)
		}
	}
	wantApp2 := map[int]bool{2: true, 3: true}
	for _, e := range byApp[2] {
		if !wantApp2[e] {
			t.Fatalf("app 2 received executor %d, want {E2,E3}", e)
		}
	}
}

// TestFig3LocalityFairness reproduces §IV-A / Fig. 3: two applications each
// with two single-task jobs, all four jobs wanting blocks 1 and 2 (on nodes
// 0 and 1). Naive fairness could give both hot executors to one app; the
// locality-aware rule gives each application one local job.
func TestFig3LocalityFairness(t *testing.T) {
	mk := func(app int) AppDemand {
		return AppDemand{App: app, Budget: 2, Jobs: []JobDemand{
			{Job: app*10 + 1, Tasks: []TaskDemand{task(1, 0, 0)}},
			{Job: app*10 + 2, Tasks: []TaskDemand{task(1, 1, 1)}},
		}}
	}
	apps := []AppDemand{mk(3), mk(4)}
	plan := Allocate(apps, execs(4), DefaultOptions())
	local := map[int]int{}
	for _, a := range plan.Assignments {
		if a.Local {
			local[a.App]++
		}
	}
	if local[3] != 1 || local[4] != 1 {
		t.Fatalf("local jobs per app = %v, want one each (locality fairness)", local)
	}
}

// TestFig4PriorityIntra reproduces §IV-B / Fig. 4: one application with two
// jobs of two tasks each, blocks on nodes 0..3, budget of 2 executors.
// Priority allocation must fully satisfy one job (the paper's Job1) rather
// than giving each job one local task.
func TestFig4PriorityIntra(t *testing.T) {
	apps := []AppDemand{{App: 5, Budget: 2, Jobs: []JobDemand{
		{Job: 1, Tasks: []TaskDemand{task(1, 0, 0), task(2, 1, 1)}},
		{Job: 2, Tasks: []TaskDemand{task(1, 2, 2), task(2, 3, 3)}},
	}}}
	plan := Allocate(apps, execs(4), DefaultOptions())
	if len(plan.Assignments) != 2 {
		t.Fatalf("assigned %d executors, want 2 (budget)", len(plan.Assignments))
	}
	perJob := map[int]int{}
	for _, a := range plan.Assignments {
		if a.Local {
			perJob[a.Job]++
		}
	}
	if perJob[1] != 2 || perJob[2] != 0 {
		t.Fatalf("local tasks per job = %v, want job 1 fully local", perJob)
	}
}

// TestFig4FairnessIntra checks the strawman spreads locality thin: each job
// gets exactly one local task and neither is fully local.
func TestFig4FairnessIntra(t *testing.T) {
	apps := []AppDemand{{App: 5, Budget: 2, Jobs: []JobDemand{
		{Job: 1, Tasks: []TaskDemand{task(1, 0, 0), task(2, 1, 1)}},
		{Job: 2, Tasks: []TaskDemand{task(1, 2, 2), task(2, 3, 3)}},
	}}}
	plan := Allocate(apps, execs(4), Options{FillToBudget: true, Intra: FairnessIntra{}})
	perJob := map[int]int{}
	for _, a := range plan.Assignments {
		if a.Local {
			perJob[a.Job]++
		}
	}
	if perJob[1] != 1 || perJob[2] != 1 {
		t.Fatalf("fairness strawman local tasks per job = %v, want 1 and 1", perJob)
	}
}

func TestSmallestJobFirst(t *testing.T) {
	// Budget 2: job 7 (1 task) should be satisfied before job 8 (3 tasks).
	apps := []AppDemand{{App: 0, Budget: 2, Jobs: []JobDemand{
		{Job: 8, Tasks: []TaskDemand{task(1, 0, 0), task(2, 1, 1), task(3, 2, 2)}},
		{Job: 7, Tasks: []TaskDemand{task(1, 3, 3)}},
	}}}
	plan := Allocate(apps, execs(4), Options{FillToBudget: false})
	var first Assignment
	if len(plan.Assignments) == 0 {
		t.Fatal("no assignments")
	}
	first = plan.Assignments[0]
	if first.Job != 7 {
		t.Fatalf("first allocation served job %d, want 7 (fewest remaining tasks)", first.Job)
	}
}

func TestBudgetRespected(t *testing.T) {
	apps := []AppDemand{{App: 0, Budget: 3, Jobs: []JobDemand{
		{Job: 1, Tasks: []TaskDemand{
			task(1, 0, 0), task(2, 1, 1), task(3, 2, 2), task(4, 3, 3), task(5, 4, 4),
		}},
	}}}
	plan := Allocate(apps, execs(8), DefaultOptions())
	if len(plan.Assignments) != 3 {
		t.Fatalf("assigned %d, want budget 3", len(plan.Assignments))
	}
}

func TestHeldCountsAgainstBudget(t *testing.T) {
	apps := []AppDemand{{App: 0, Budget: 3, Held: 2, Jobs: []JobDemand{
		{Job: 1, Tasks: []TaskDemand{task(1, 0, 0), task(2, 1, 1)}},
	}}}
	plan := Allocate(apps, execs(4), DefaultOptions())
	if len(plan.Assignments) != 1 {
		t.Fatalf("assigned %d, want 1 (2 already held of budget 3)", len(plan.Assignments))
	}
}

func TestNoUsefulExecutorNoFill(t *testing.T) {
	// Task wants node 9; only executors on nodes 0..3 idle; FillToBudget off.
	apps := []AppDemand{{App: 0, Budget: 2, Jobs: []JobDemand{
		{Job: 1, Tasks: []TaskDemand{task(1, 0, 9)}},
	}}}
	plan := Allocate(apps, execs(4), Options{FillToBudget: false})
	if len(plan.Assignments) != 0 {
		t.Fatalf("assigned %d, want 0", len(plan.Assignments))
	}
}

func TestFillGrabsNonLocalPerPendingTask(t *testing.T) {
	apps := []AppDemand{{App: 0, Budget: 2, Jobs: []JobDemand{
		{Job: 1, Tasks: []TaskDemand{task(1, 0, 9)}},
	}}}
	plan := Allocate(apps, execs(4), DefaultOptions())
	// One pending task with no locality option → exactly one fill executor.
	if len(plan.Assignments) != 1 {
		t.Fatalf("assigned %d, want 1 (fill bounded by pending demand)", len(plan.Assignments))
	}
	for _, a := range plan.Assignments {
		if a.Local {
			t.Fatalf("impossible local assignment: %+v", a)
		}
	}
}

func TestFillCoversExtraTasks(t *testing.T) {
	apps := []AppDemand{{App: 0, Budget: 5, ExtraTasks: 3}}
	plan := Allocate(apps, execs(4), DefaultOptions())
	if len(plan.Assignments) != 3 {
		t.Fatalf("assigned %d, want 3 (one per no-preference pending task)", len(plan.Assignments))
	}
}

func TestFillFavorsLeastLocalizedApp(t *testing.T) {
	apps := []AppDemand{
		{App: 0, Budget: 2, LocalJobs: 9, TotalJobs: 9, ExtraTasks: 2},
		{App: 1, Budget: 2, LocalJobs: 0, TotalJobs: 9, ExtraTasks: 2},
	}
	plan := Allocate(apps, []ExecInfo{{ID: 0, Node: 0}}, DefaultOptions())
	if len(plan.Assignments) != 1 || plan.Assignments[0].App != 1 {
		t.Fatalf("fill went to %+v, want app 1", plan.Assignments)
	}
}

func TestEachExecutorAssignedOnce(t *testing.T) {
	apps := []AppDemand{
		{App: 0, Budget: 4, Jobs: []JobDemand{{Job: 1, Tasks: []TaskDemand{task(1, 0, 0), task(2, 1, 1)}}}},
		{App: 1, Budget: 4, Jobs: []JobDemand{{Job: 2, Tasks: []TaskDemand{task(1, 0, 0), task(2, 1, 1)}}}},
	}
	plan := Allocate(apps, execs(4), DefaultOptions())
	seen := map[int]bool{}
	for _, a := range plan.Assignments {
		if seen[a.Exec] {
			t.Fatalf("executor %d assigned twice", a.Exec)
		}
		seen[a.Exec] = true
	}
}

func TestHistoryDrivesFairness(t *testing.T) {
	// App 0 already has 100% local jobs; app 1 has 0%. Both want the single
	// executor on node 0. App 1 must get it.
	apps := []AppDemand{
		{App: 0, Budget: 2, LocalJobs: 5, TotalJobs: 5, LocalTasks: 5, TotalTasks: 5,
			Jobs: []JobDemand{{Job: 1, Tasks: []TaskDemand{task(1, 0, 0)}}}},
		{App: 1, Budget: 2, LocalJobs: 0, TotalJobs: 5, LocalTasks: 0, TotalTasks: 5,
			Jobs: []JobDemand{{Job: 2, Tasks: []TaskDemand{task(1, 0, 0)}}}},
	}
	plan := Allocate(apps, []ExecInfo{{ID: 0, Node: 0}}, Options{FillToBudget: false})
	if len(plan.Assignments) != 1 || plan.Assignments[0].App != 1 {
		t.Fatalf("hot executor went to %+v, want app 1 (least localized)", plan.Assignments)
	}
}

func TestTieBreakByLocalTasks(t *testing.T) {
	// Equal job locality (0/1 each); app 1 has lower task locality history.
	apps := []AppDemand{
		{App: 0, Budget: 1, LocalTasks: 3, TotalTasks: 4,
			Jobs: []JobDemand{{Job: 1, Tasks: []TaskDemand{task(1, 0, 0)}}}},
		{App: 1, Budget: 1, LocalTasks: 1, TotalTasks: 4,
			Jobs: []JobDemand{{Job: 2, Tasks: []TaskDemand{task(1, 0, 0)}}}},
	}
	plan := Allocate(apps, []ExecInfo{{ID: 0, Node: 0}}, Options{FillToBudget: false})
	if len(plan.Assignments) != 1 || plan.Assignments[0].App != 1 {
		t.Fatalf("executor went to %+v, want app 1 (tie-break on task locality)", plan.Assignments)
	}
}

func TestEmptyInputs(t *testing.T) {
	if p := Allocate(nil, nil, DefaultOptions()); len(p.Assignments) != 0 {
		t.Fatal("non-empty plan from empty inputs")
	}
	if p := Allocate([]AppDemand{{App: 0, Budget: 5}}, nil, DefaultOptions()); len(p.Assignments) != 0 {
		t.Fatal("assigned executors from an empty pool")
	}
	if p := Allocate(nil, execs(3), DefaultOptions()); len(p.Assignments) != 0 {
		t.Fatal("assigned executors to no apps")
	}
}

func TestReplicaChoice(t *testing.T) {
	// Task's block has replicas on nodes 1 and 3; only node 3 has an idle
	// executor.
	apps := []AppDemand{{App: 0, Budget: 1, Jobs: []JobDemand{
		{Job: 1, Tasks: []TaskDemand{task(1, 0, 1, 3)}},
	}}}
	idle := []ExecInfo{{ID: 7, Node: 3}, {ID: 9, Node: 5}}
	plan := Allocate(apps, idle, Options{FillToBudget: false})
	if len(plan.Assignments) != 1 || plan.Assignments[0].Exec != 7 || !plan.Assignments[0].Local {
		t.Fatalf("plan = %+v, want local assignment of executor 7", plan.Assignments)
	}
}

// Property: plans never violate structural invariants — each executor used
// at most once, budgets respected, Local flags truthful.
func TestQuickPlanInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		nodes := rng.IntRange(2, 10)
		var idle []ExecInfo
		id := 0
		for n := 0; n < nodes; n++ {
			for k := 0; k < rng.IntRange(0, 2); k++ {
				idle = append(idle, ExecInfo{ID: id, Node: n})
				id++
			}
		}
		nodeOf := map[int]int{}
		for _, e := range idle {
			nodeOf[e.ID] = e.Node
		}
		var apps []AppDemand
		nApps := rng.IntRange(1, 4)
		blockID := hdfs.BlockID(0)
		for a := 0; a < nApps; a++ {
			app := AppDemand{App: a, Budget: rng.IntRange(0, 6), Held: rng.IntRange(0, 2)}
			for j := 0; j < rng.IntRange(0, 3); j++ {
				jd := JobDemand{Job: a*100 + j}
				for k := 0; k < rng.IntRange(1, 4); k++ {
					reps := rng.Sample(nodes, rng.IntRange(1, min(3, nodes)))
					jd.Tasks = append(jd.Tasks, TaskDemand{Task: k, Block: blockID, Nodes: reps})
					blockID++
				}
				app.Jobs = append(app.Jobs, jd)
			}
			apps = append(apps, app)
		}
		opts := DefaultOptions()
		if rng.Bool(0.5) {
			opts.FillToBudget = false
		}
		if rng.Bool(0.3) {
			opts.Intra = FairnessIntra{}
		}
		plan := Allocate(apps, idle, opts)

		usedExec := map[int]bool{}
		perApp := map[int]int{}
		for _, as := range plan.Assignments {
			if usedExec[as.Exec] {
				return false
			}
			usedExec[as.Exec] = true
			perApp[as.App]++
			if as.Node != nodeOf[as.Exec] {
				return false
			}
			if as.Local {
				// The executor's node must hold the task's block.
				ok := false
				for _, ap := range apps {
					if ap.App != as.App {
						continue
					}
					for _, jd := range ap.Jobs {
						if jd.Job != as.Job {
							continue
						}
						for _, td := range jd.Tasks {
							if td.Task == as.Task && td.Block == as.Block {
								for _, n := range td.Nodes {
									if n == as.Node {
										ok = true
									}
								}
							}
						}
					}
				}
				if !ok {
					return false
				}
			}
		}
		for _, ap := range apps {
			allowed := ap.Budget - ap.Held
			if allowed < 0 {
				allowed = 0 // already over budget: nothing new may be added
			}
			if perApp[ap.App] > allowed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Custody's achieved max-min fraction of local tasks never exceeds
// the fractional concurrent-flow upper bound, including on multi-slot
// executors, where one executor serves up to Slots local tasks.
func TestQuickUpperBoundHolds(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		nodes := rng.IntRange(2, 6)
		idle := execs(nodes)
		for i := range idle {
			idle[i].Slots = rng.IntRange(1, 4)
		}
		var apps []AppDemand
		nApps := rng.IntRange(1, 3)
		for a := 0; a < nApps; a++ {
			app := AppDemand{App: a, Budget: nodes}
			jd := JobDemand{Job: a}
			for k := 0; k < rng.IntRange(1, 4); k++ {
				reps := rng.Sample(nodes, 1)
				jd.Tasks = append(jd.Tasks, TaskDemand{Task: k, Block: hdfs.BlockID(a*10 + k), Nodes: reps})
			}
			app.Jobs = append(app.Jobs, jd)
			apps = append(apps, app)
		}
		bound := FractionalMaxMin(apps, idle, 1e-3)
		plan := Allocate(apps, idle, Options{FillToBudget: false})
		localPerApp := map[int]int{}
		for _, as := range plan.Assignments {
			if as.Local {
				localPerApp[as.App]++
			}
		}
		worst := 1.0
		for _, ap := range apps {
			total := 0
			for _, j := range ap.Jobs {
				total += len(j.Tasks)
			}
			frac := float64(localPerApp[ap.App]) / float64(total)
			if frac < worst {
				worst = frac
			}
		}
		return worst <= bound+5e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the greedy intra-app objective is at least half the optimum
// (2-approximation, §IV-B) and never exceeds it.
func TestQuickGreedyTwoApprox(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		nodes := rng.IntRange(2, 8)
		idle := execs(nodes)
		var jobs []JobDemand
		for j := 0; j < rng.IntRange(1, 4); j++ {
			jd := JobDemand{Job: j}
			for k := 0; k < rng.IntRange(1, 4); k++ {
				jd.Tasks = append(jd.Tasks, TaskDemand{
					Task: k, Block: hdfs.BlockID(j*10 + k),
					Nodes: rng.Sample(nodes, rng.IntRange(1, min(2, nodes))),
				})
			}
			jobs = append(jobs, jd)
		}
		budget := rng.IntRange(1, nodes)
		greedy, _ := GreedyIntraObjective(jobs, idle, budget)
		opt := OptimalIntraObjective(jobs, idle, budget)
		if greedy > opt+1e-9 {
			return false
		}
		return greedy*2+1e-9 >= opt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIntraObjective(t *testing.T) {
	jobs := []JobDemand{
		{Job: 1, Tasks: []TaskDemand{task(1, 0, 0), task(2, 1, 1)}},
		{Job: 2, Tasks: []TaskDemand{task(1, 2, 2)}},
	}
	got := IntraObjective(jobs, map[int]int{1: 2, 2: 0})
	if math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("objective = %v, want 1.0", got)
	}
	got = IntraObjective(jobs, map[int]int{1: 1, 2: 1})
	if math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("objective = %v, want 1.5", got)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Property: two applications with identical demands and budgets end an
// allocation round with (nearly) the same number of perfectly-local JOBS —
// Algorithm 1 balances the percentage of local jobs, not local tasks (the
// counts of local tasks can legitimately diverge when jobs are partially
// satisfiable). "Nearly": indivisible jobs allow a difference of one.
func TestQuickSymmetricAppsJobFairness(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		nodes := rng.IntRange(4, 12)
		idle := execs(nodes)
		mkJobs := func() []JobDemand {
			var jobs []JobDemand
			r := rng.Fork("jobs") // identical stream for both apps
			for j := 0; j < r.IntRange(1, 3); j++ {
				jd := JobDemand{Job: j}
				for k := 0; k < r.IntRange(1, 4); k++ {
					jd.Tasks = append(jd.Tasks, TaskDemand{
						Task: k, Block: hdfs.BlockID(j*10 + k),
						Nodes: r.Sample(nodes, 1),
					})
				}
				jobs = append(jobs, jd)
			}
			return jobs
		}
		budget := rng.IntRange(1, nodes)
		apps := []AppDemand{
			{App: 0, Budget: budget, Jobs: mkJobs()},
			{App: 1, Budget: budget, Jobs: mkJobs()},
		}
		plan := Allocate(apps, idle, Options{FillToBudget: false})
		perJob := map[[2]int]int{}
		for _, as := range plan.Assignments {
			if as.Local {
				perJob[[2]int{as.App, as.Job}]++
			}
		}
		localJobs := map[int]int{}
		for _, a := range apps {
			for _, j := range a.Jobs {
				if perJob[[2]int{a.App, j.Job}] == len(j.Tasks) {
					localJobs[a.App]++
				}
			}
		}
		diff := localJobs[0] - localJobs[1]
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: with FillToBudget off, every assignment is locality-carrying.
func TestQuickNoFillMeansAllLocal(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		nodes := rng.IntRange(2, 10)
		idle := execs(nodes)
		var apps []AppDemand
		for a := 0; a < rng.IntRange(1, 3); a++ {
			ad := AppDemand{App: a, Budget: rng.IntRange(1, nodes), ExtraTasks: rng.IntRange(0, 3)}
			jd := JobDemand{Job: 0}
			for k := 0; k < rng.IntRange(1, 5); k++ {
				jd.Tasks = append(jd.Tasks, TaskDemand{
					Task: k, Block: hdfs.BlockID(a*100 + k),
					Nodes: rng.Sample(nodes, rng.IntRange(1, 2)),
				})
			}
			ad.Jobs = []JobDemand{jd}
			apps = append(apps, ad)
		}
		plan := Allocate(apps, idle, Options{FillToBudget: false})
		for _, as := range plan.Assignments {
			if !as.Local {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: multi-slot executors are never split across applications.
func TestQuickMultiSlotSingleOwner(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		nodes := rng.IntRange(2, 6)
		var idle []ExecInfo
		for n := 0; n < nodes; n++ {
			idle = append(idle, ExecInfo{ID: n, Node: n, Slots: rng.IntRange(1, 4)})
		}
		var apps []AppDemand
		for a := 0; a < rng.IntRange(2, 4); a++ {
			ad := AppDemand{App: a, Budget: rng.IntRange(1, nodes)}
			jd := JobDemand{Job: 0}
			for k := 0; k < rng.IntRange(1, 6); k++ {
				jd.Tasks = append(jd.Tasks, TaskDemand{
					Task: k, Block: hdfs.BlockID(a*100 + k),
					Nodes: rng.Sample(nodes, 1),
				})
			}
			ad.Jobs = []JobDemand{jd}
			apps = append(apps, ad)
		}
		plan := Allocate(apps, idle, DefaultOptions())
		owner := map[int]int{}
		slotUse := map[int]int{}
		for _, as := range plan.Assignments {
			if prev, ok := owner[as.Exec]; ok && prev != as.App {
				return false // executor split across apps
			}
			owner[as.Exec] = as.App
			slotUse[as.Exec]++
		}
		for _, e := range idle {
			if slotUse[e.ID] > e.Slots {
				return false // over-subscribed slots
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAllocatePaperScale measures one allocation round at the paper's
// 100-node scale: 4 applications, ~50 pending tasks each, 200 idle
// executors. Custody runs this on every job arrival/departure.
func BenchmarkAllocatePaperScale(b *testing.B) {
	rng := xrand.New(77)
	const nodes = 100
	var idle []ExecInfo
	for n := 0; n < nodes; n++ {
		idle = append(idle, ExecInfo{ID: 2 * n, Node: n, Slots: 4})
		idle = append(idle, ExecInfo{ID: 2*n + 1, Node: n, Slots: 4})
	}
	var apps []AppDemand
	block := 0
	for a := 0; a < 4; a++ {
		ad := AppDemand{App: a, Budget: 50}
		for j := 0; j < 2; j++ {
			jd := JobDemand{Job: j}
			for k := 0; k < 25; k++ {
				jd.Tasks = append(jd.Tasks, TaskDemand{
					Task: k, Block: hdfs.BlockID(block), Nodes: rng.Sample(nodes, 3),
				})
				block++
			}
			ad.Jobs = append(ad.Jobs, jd)
		}
		apps = append(apps, ad)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := Allocate(apps, idle, DefaultOptions())
		if len(plan.Assignments) == 0 {
			b.Fatal("empty plan")
		}
	}
}

// BenchmarkOptimalIntra measures the exact min-cost-flow comparator.
func BenchmarkOptimalIntra(b *testing.B) {
	rng := xrand.New(78)
	const nodes = 50
	idle := execs(nodes)
	var jobs []JobDemand
	block := 0
	for j := 0; j < 5; j++ {
		jd := JobDemand{Job: j}
		for k := 0; k < 10; k++ {
			jd.Tasks = append(jd.Tasks, TaskDemand{Task: k, Block: hdfs.BlockID(block), Nodes: rng.Sample(nodes, 3)})
			block++
		}
		jobs = append(jobs, jd)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if OptimalIntraObjective(jobs, idle, 30) <= 0 {
			b.Fatal("zero objective")
		}
	}
}

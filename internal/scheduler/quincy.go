package scheduler

import (
	"slices"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/maxflow"
)

// Quincy is a Quincy-style scheduler (Isard et al., SOSP'09; §VII related
// work): instead of waiting for locality like delay scheduling, it solves a
// global min-cost flow over the application's *entire* executor set, with
// edge costs encoding data-placement preference, and launches tasks
// according to the resulting plan. Unlike real Quincy it does not preempt
// running tasks; the plan covers pending tasks and free capacity only.
//
// A replan solves only when the network differs from the last solve's: the
// queue (tracked by gen), the executor view (IDs and slots, in order) or
// the cost matrix. The solver is deterministic, and the held plan loses an
// entry only when gen moves, so keeping it is exactly what a re-solve would
// produce (DESIGN.md §10, "Quincy replan").
type Quincy struct {
	Loc Locator
	// View returns the executors currently allocated to the application;
	// supplied by the driver.
	View func() []*cluster.Executor
	// Costs of placing an input task relative to its block's replicas.
	LocalCost, RackCost, AnyCost float64

	pendingQueue
	dirty bool
	// gen counts changes to the queue and to the held plan.
	gen uint64
	// held is everything a replan keeps; it is dropped when the queue
	// drains, so an idle application holds no network.
	held replanState

	solves int // solves run, for tests
}

// replanState is the last solve's inputs and plan, and the buffers a
// replan reuses.
type replanState struct {
	// The last solve's inputs: the queue generation, the executor view as
	// (ID, slots) pairs and the task-major cost matrix. plan[i] lists, in
	// queue order, the tasks planned onto the executor with ID view[2i].
	solved    bool
	solvedGen uint64
	view      []int
	costs     []float64
	plan      [][]*app.Task

	// The next replan's inputs, the executors' racks, one task's replica
	// racks, the network and its task→executor edges.
	nextView  []int
	nextCosts []float64
	execRack  []int
	replRack  []int
	g         *maxflow.Graph
	edges     []int
}

// NewQuincy builds the flow-based scheduler.
func NewQuincy(loc Locator, view func() []*cluster.Executor) *Quincy {
	return &Quincy{
		Loc: loc, View: view,
		LocalCost: 0, RackCost: 2, AnyCost: 10,
	}
}

// Name implements Scheduler.
func (q *Quincy) Name() string { return "quincy" }

// Submit implements Scheduler.
func (q *Quincy) Submit(tasks []*app.Task, now float64) {
	q.pendingQueue.Submit(tasks, now)
	q.gen++
	q.dirty = true
}

// Offer implements Scheduler: consult (recomputing if stale) the flow plan
// and launch the task planned for this executor.
func (q *Quincy) Offer(e *cluster.Executor, now float64) *app.Task {
	if len(q.tasks) == 0 {
		return nil
	}
	if q.dirty {
		q.replan()
	}
	for {
		t := q.popPlanned(e.ID)
		if t == nil {
			break
		}
		if q.takeFromQueue(t) {
			return t
		}
	}
	// Nothing planned here: replan once in case the world moved on.
	q.replan()
	if t := q.popPlanned(e.ID); t != nil && q.takeFromQueue(t) {
		return t
	}
	return nil
}

// popPlanned removes and returns the first task planned onto the executor,
// or nil.
func (q *Quincy) popPlanned(execID int) *app.Task {
	h := &q.held
	for i, planned := range h.plan {
		if h.view[2*i] != execID {
			continue
		}
		if len(planned) == 0 {
			return nil
		}
		h.plan[i] = planned[1:]
		q.gen++
		return planned[0]
	}
	return nil
}

// takeFromQueue removes a queued task, dropping the held network and plan
// when the queue drains; false if the task was not queued.
func (q *Quincy) takeFromQueue(t *app.Task) bool {
	if !q.pendingQueue.Remove(t) {
		return false
	}
	q.gen++
	if len(q.tasks) == 0 {
		q.held = replanState{}
	}
	return true
}

// replan solves the min-cost assignment of pending tasks to executor slots,
// unless the network is the one the held plan was solved on.
func (q *Quincy) replan() {
	q.dirty = false
	h := &q.held
	execs := q.View()
	h.nextView = h.nextView[:0]
	for _, e := range execs {
		h.nextView = append(h.nextView, e.ID, e.Slots())
	}
	h.nextCosts = q.buildCosts(h.nextCosts[:0], execs)
	if h.solved && h.solvedGen == q.gen && slices.Equal(h.view, h.nextView) && slices.Equal(h.costs, h.nextCosts) {
		return
	}
	h.view, h.nextView = h.nextView, h.view
	h.costs, h.nextCosts = h.nextCosts, h.costs
	h.solved, h.solvedGen = true, q.gen
	h.plan = resize(h.plan, len(execs))
	for i := range h.plan {
		h.plan[i] = h.plan[i][:0]
	}
	if len(execs) == 0 || len(q.tasks) == 0 {
		return
	}
	q.solves++
	// Node layout: 0 source, 1..T tasks, then executors, then sink.
	nT, nE := len(q.tasks), len(execs)
	execBase := 1 + nT
	sink := execBase + nE
	if h.g == nil {
		h.g = maxflow.NewGraph(sink + 1)
	} else {
		h.g.Reset(sink + 1)
	}
	g := h.g
	for ei, e := range execs {
		g.AddEdge(execBase+ei, sink, float64(e.Slots()), 0)
	}
	h.edges = resize(h.edges, nT*nE)
	for ti := range q.tasks {
		g.AddEdge(0, 1+ti, 1, 0)
		for ei := range execs {
			h.edges[ti*nE+ei] = g.AddEdge(1+ti, execBase+ei, 1, h.costs[ti*nE+ei])
		}
	}
	g.MinCostFlow(0, sink, float64(nT))
	for ti, t := range q.tasks {
		for ei := range execs {
			if g.Flow(h.edges[ti*nE+ei]) > 0.5 {
				h.plan[ei] = append(h.plan[ei], t)
			}
		}
	}
}

// buildCosts appends the task-major cost matrix of placing each queued
// task on each executor, asking the locator once per task.
func (q *Quincy) buildCosts(costs []float64, execs []*cluster.Executor) []float64 {
	h := &q.held
	rl, hasRacks := q.Loc.(RackLocator)
	if hasRacks {
		h.execRack = h.execRack[:0]
		for _, e := range execs {
			h.execRack = append(h.execRack, rl.Rack(e.Node.ID))
		}
	}
	for _, t := range q.tasks {
		var locs []int
		if t.IsInput() {
			locs = q.Loc.Locations(t.Block)
		}
		if len(locs) == 0 {
			// No preference: any slot is fine.
			for range execs {
				costs = append(costs, q.LocalCost)
			}
			continue
		}
		if hasRacks {
			h.replRack = h.replRack[:0]
			for _, n := range locs {
				h.replRack = append(h.replRack, rl.Rack(n))
			}
		}
		for ei, e := range execs {
			cost := q.AnyCost
			if slices.Contains(locs, e.Node.ID) {
				cost = q.LocalCost
			} else if hasRacks && slices.Contains(h.replRack, h.execRack[ei]) {
				cost = q.RackCost
			}
			costs = append(costs, cost)
		}
	}
	return costs
}

// resize returns b with length n, reusing its storage when large enough.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// NextDeadline implements Scheduler: Quincy never waits, so there is no
// time-based retry.
func (q *Quincy) NextDeadline(now float64) (float64, bool) { return 0, false }

// Remove implements Scheduler.
func (q *Quincy) Remove(t *app.Task) bool {
	q.dirty = true
	return q.takeFromQueue(t)
}

package scheduler

import (
	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/maxflow"
)

// refQuincy is the Quincy scheduler as it stood before replans learned to
// skip unchanged networks, frozen as the oracle for FuzzQuincyEquivalence.
// It rebuilds and solves the flow network on every replan and asks the
// locator up to three times per (task, executor) pair, by scanning
// Locations (refLocalOn, refHasPreference).
type refQuincy struct {
	Loc                          Locator
	View                         func() []*cluster.Executor
	LocalCost, RackCost, AnyCost float64

	queue []*app.Task
	plan  map[int][]*app.Task
	dirty bool
}

func newRefQuincy(loc Locator, view func() []*cluster.Executor) *refQuincy {
	return &refQuincy{
		Loc: loc, View: view,
		LocalCost: 0, RackCost: 2, AnyCost: 10,
		plan: map[int][]*app.Task{},
	}
}

func (q *refQuincy) Submit(tasks []*app.Task, now float64) {
	q.queue = append(q.queue, tasks...)
	q.dirty = true
}

func (q *refQuincy) Offer(e *cluster.Executor, now float64) *app.Task {
	if len(q.queue) == 0 {
		return nil
	}
	if q.dirty {
		q.replan()
	}
	planned := q.plan[e.ID]
	for len(planned) > 0 {
		t := planned[0]
		planned = planned[1:]
		q.plan[e.ID] = planned
		if q.takeFromQueue(t) {
			return t
		}
	}
	q.replan()
	planned = q.plan[e.ID]
	if len(planned) > 0 {
		t := planned[0]
		q.plan[e.ID] = planned[1:]
		if q.takeFromQueue(t) {
			return t
		}
	}
	return nil
}

func (q *refQuincy) takeFromQueue(t *app.Task) bool {
	for i, qt := range q.queue {
		if qt == t {
			q.queue = append(q.queue[:i], q.queue[i+1:]...)
			return true
		}
	}
	return false
}

func (q *refQuincy) replan() {
	q.dirty = false
	q.plan = map[int][]*app.Task{}
	execs := q.View()
	if len(execs) == 0 || len(q.queue) == 0 {
		return
	}
	nT := len(q.queue)
	execBase := 1 + nT
	sink := execBase + len(execs)
	g := maxflow.NewGraph(sink + 1)
	type edgeRef struct {
		id   int
		task *app.Task
		exec *cluster.Executor
	}
	var refs []edgeRef
	rl, hasRacks := q.Loc.(RackLocator)
	for ei, e := range execs {
		cap := float64(e.Slots())
		g.AddEdge(execBase+ei, sink, cap, 0)
	}
	for ti, t := range q.queue {
		g.AddEdge(0, 1+ti, 1, 0)
		for ei, e := range execs {
			cost := q.AnyCost
			if !refHasPreference(q.Loc, t) {
				cost = q.LocalCost
			} else if refLocalOn(q.Loc, t, e.Node.ID) {
				cost = q.LocalCost
			} else if hasRacks && q.rackLocal(rl, t, e.Node.ID) {
				cost = q.RackCost
			}
			id := g.AddEdge(1+ti, execBase+ei, 1, cost)
			refs = append(refs, edgeRef{id: id, task: t, exec: e})
		}
	}
	g.MinCostFlow(0, sink, float64(nT))
	for _, r := range refs {
		if g.Flow(r.id) > 0.5 {
			q.plan[r.exec.ID] = append(q.plan[r.exec.ID], r.task)
		}
	}
}

func (q *refQuincy) rackLocal(rl RackLocator, t *app.Task, node int) bool {
	rack := rl.Rack(node)
	for _, n := range rl.Locations(t.Block) {
		if rl.Rack(n) == rack {
			return true
		}
	}
	return false
}

func (q *refQuincy) PendingTasks() []*app.Task { return append([]*app.Task(nil), q.queue...) }

func (q *refQuincy) Remove(t *app.Task) bool {
	q.dirty = true
	return q.takeFromQueue(t)
}

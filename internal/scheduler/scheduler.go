// Package scheduler implements the intra-application task schedulers that
// place ready tasks onto the executors the cluster manager has allocated.
//
// All experiments in the paper run Spark's delay scheduling unchanged on
// both sides (§V: "all the applications use the standard delay scheduling of
// Spark to accept resource offers and schedule tasks"), so Delay is the
// default here. FIFO and LocalityHard (Sparrow-like hard constraints, §VII)
// are provided as comparators.
//
// Schedulers ask locality questions through the Locator: "is this block on
// that node?" is HasReplicaOn and "does it constrain placement at all?" is
// HasReplica, both answered by the NameNode without building a replica
// list. Only Quincy, whose rack costs need the replicas themselves, reads
// Locations. FIFO, LocalityHard, Delay and Quincy keep their pending tasks
// in one shared FIFO queue (pendingQueue).
package scheduler

import (
	"math"
	"slices"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/hdfs"
)

// Locator answers block-location queries; satisfied by *hdfs.NameNode.
// HasReplicaOn and HasReplica must agree with Locations: they are
// slices.Contains(Locations(b), node) and len(Locations(b)) > 0, answered
// without building the list (DESIGN.md §10, "Locality queries").
type Locator interface {
	Locations(hdfs.BlockID) []int
	HasReplicaOn(b hdfs.BlockID, node int) bool
	HasReplica(hdfs.BlockID) bool
}

// RackLocator additionally answers node→rack queries; *hdfs.NameNode
// satisfies it. Quincy uses it for its rack-local cost when available.
type RackLocator interface {
	Locator
	Rack(node int) int
}

// Scheduler is an application-side task scheduler. The driver offers idle
// executors; the scheduler picks a pending task or declines.
type Scheduler interface {
	Name() string
	// Submit adds ready tasks to the pending queue.
	Submit(tasks []*app.Task, now float64)
	// Offer proposes an idle executor. The scheduler returns the task to
	// launch on it, or nil to decline the offer.
	Offer(e *cluster.Executor, now float64) *app.Task
	// Pending returns the number of queued tasks.
	Pending() int
	// PendingTasks returns the queued tasks in FIFO order.
	PendingTasks() []*app.Task
	// NextDeadline returns the earliest future time at which an offer that
	// is currently declined could be accepted (locality-wait expiry), and
	// whether such a deadline exists.
	NextDeadline(now float64) (float64, bool)
	// Remove withdraws a pending task (e.g., on speculative completion);
	// reports whether the task was queued.
	Remove(t *app.Task) bool
}

// localOn reports whether one of the task's input-block replicas lives on
// the node.
func localOn(loc Locator, t *app.Task, node int) bool {
	return t.IsInput() && loc.HasReplicaOn(t.Block, node)
}

// hasPreference reports whether the task constrains placement at all: input
// tasks with at least one live replica do, everything else launches anywhere
// immediately (Spark's "no-pref"/ANY level).
func hasPreference(loc Locator, t *app.Task) bool {
	return t.IsInput() && loc.HasReplica(t.Block)
}

// pendingQueue is the FIFO pending-task list FIFO, LocalityHard, Delay and
// Quincy share; it supplies their Submit, Pending, PendingTasks and Remove.
type pendingQueue struct {
	tasks []*app.Task
}

// Submit implements Scheduler.
func (q *pendingQueue) Submit(tasks []*app.Task, now float64) {
	q.tasks = append(q.tasks, tasks...)
}

// Pending implements Scheduler.
func (q *pendingQueue) Pending() int { return len(q.tasks) }

// PendingTasks implements Scheduler.
func (q *pendingQueue) PendingTasks() []*app.Task {
	return append([]*app.Task(nil), q.tasks...)
}

// Remove implements Scheduler.
func (q *pendingQueue) Remove(t *app.Task) bool {
	i := slices.Index(q.tasks, t)
	if i < 0 {
		return false
	}
	q.take(i)
	return true
}

// take removes and returns the i-th queued task.
func (q *pendingQueue) take(i int) *app.Task {
	t := q.tasks[i]
	q.tasks = append(q.tasks[:i], q.tasks[i+1:]...)
	return t
}

// Delay implements delay scheduling (Zaharia et al., EuroSys'10; Spark's
// spark.locality.wait): a task waits up to Wait seconds for an offer from a
// node storing its input before accepting any executor (node → any, the
// paper's measured configuration).
type Delay struct {
	Loc  Locator
	Wait float64 // seconds; Spark default 3.0
	// Hint optionally returns the manager's scheduling suggestion for a
	// task (the executor Custody allocated with it in mind, §V). A pending
	// task hinted to the offered executor is taken before anything else;
	// nil disables suggestions.
	Hint func(*app.Task) (execID int, ok bool)

	pendingQueue
}

// DefaultWait is Spark's spark.locality.wait default.
const DefaultWait = 3.0

// NewDelay builds a delay scheduler with the given locality wait.
func NewDelay(loc Locator, wait float64) *Delay {
	if wait < 0 {
		wait = 0
	}
	return &Delay{Loc: loc, Wait: wait}
}

// Name implements Scheduler.
func (d *Delay) Name() string { return "delay" }

// Offer implements Scheduler: hinted tasks first, then node-local tasks,
// then no-preference tasks, then — after the wait — anything, each level
// in FIFO order.
func (d *Delay) Offer(e *cluster.Executor, now float64) *app.Task {
	node := e.Node.ID
	// Level 0: the manager suggested this very executor for the task.
	if d.Hint != nil {
		for i, t := range d.tasks {
			if id, ok := d.Hint(t); ok && id == e.ID {
				return d.take(i)
			}
		}
	}
	// Level 1: node-local.
	for i, t := range d.tasks {
		if localOn(d.Loc, t, node) {
			return d.take(i)
		}
	}
	// Level 2: tasks with no locality preference launch anywhere.
	for i, t := range d.tasks {
		if !hasPreference(d.Loc, t) {
			return d.take(i)
		}
	}
	// Level 3: wait expired → accept any slot.
	for i, t := range d.tasks {
		if now-t.ReadyAt >= d.Wait {
			return d.take(i)
		}
	}
	return nil
}

// NextDeadline implements Scheduler: the earliest wait expiry
// (ReadyAt+Wait) among tasks with a locality preference.
func (d *Delay) NextDeadline(now float64) (float64, bool) {
	earliest := math.Inf(1)
	for _, t := range d.tasks {
		if !hasPreference(d.Loc, t) {
			continue
		}
		if dl := t.ReadyAt + d.Wait; dl > now && dl < earliest {
			earliest = dl
		}
	}
	if math.IsInf(earliest, 1) {
		return 0, false
	}
	return earliest, true
}

// FIFO launches the oldest pending task on any offered executor — no data
// awareness at all.
type FIFO struct {
	pendingQueue
}

// NewFIFO builds a FIFO scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Scheduler.
func (f *FIFO) Name() string { return "fifo" }

// Offer implements Scheduler.
func (f *FIFO) Offer(e *cluster.Executor, now float64) *app.Task {
	if len(f.tasks) == 0 {
		return nil
	}
	return f.take(0)
}

// NextDeadline implements Scheduler.
func (f *FIFO) NextDeadline(now float64) (float64, bool) { return 0, false }

// LocalityHard imposes locality as a hard constraint (Sparrow-style, §VII):
// input tasks with live replicas only ever launch on nodes storing their
// block; they wait indefinitely otherwise. Beware: under multi-application
// contention a hard-constrained task can starve forever if its replica
// nodes' executors belong to other applications — exactly the gap the paper
// points out ("while lacks discussions about how to access the executors
// storing the relevant data").
type LocalityHard struct {
	Loc Locator
	pendingQueue
}

// NewLocalityHard builds a hard-constraint scheduler.
func NewLocalityHard(loc Locator) *LocalityHard { return &LocalityHard{Loc: loc} }

// Name implements Scheduler.
func (l *LocalityHard) Name() string { return "locality-hard" }

// Offer implements Scheduler.
func (l *LocalityHard) Offer(e *cluster.Executor, now float64) *app.Task {
	node := e.Node.ID
	for i, t := range l.tasks {
		if localOn(l.Loc, t, node) || !hasPreference(l.Loc, t) {
			return l.take(i)
		}
	}
	return nil
}

// NextDeadline implements Scheduler.
func (l *LocalityHard) NextDeadline(now float64) (float64, bool) { return 0, false }

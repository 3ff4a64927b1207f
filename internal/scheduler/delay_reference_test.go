package scheduler

import (
	"math"

	"repro/internal/app"
	"repro/internal/cluster"
)

// refDelay is the Delay scheduler as it stood before its locality checks
// moved behind the locator's HasReplicaOn/HasReplica predicates and its
// RACK_LOCAL level was retired, frozen as the oracle for
// FuzzDelayEquivalence. It answers every locality question by scanning
// Locations (refLocalOn, refHasPreference), so it shares no locality code
// with the scheduler under test. RackWait stays at 0, the only value any
// caller ever set.
type refDelay struct {
	Loc      Locator
	Wait     float64
	RackWait float64
	Hint     func(*app.Task) (execID int, ok bool)

	queue []*app.Task
}

// refLocalOn reports whether one of the task's input-block replicas lives
// on the node, by scanning Locations.
func refLocalOn(loc Locator, t *app.Task, node int) bool {
	if !t.IsInput() {
		return false
	}
	for _, n := range loc.Locations(t.Block) {
		if n == node {
			return true
		}
	}
	return false
}

// refHasPreference reports whether the task is an input task with at least
// one replica in Locations.
func refHasPreference(loc Locator, t *app.Task) bool {
	return t.IsInput() && len(loc.Locations(t.Block)) > 0
}

func newRefDelay(loc Locator, wait float64) *refDelay {
	if wait < 0 {
		wait = 0
	}
	return &refDelay{Loc: loc, Wait: wait}
}

func (d *refDelay) Submit(tasks []*app.Task, now float64) {
	d.queue = append(d.queue, tasks...)
}

func (d *refDelay) rackLocalOn(t *app.Task, node int) bool {
	rl, ok := d.Loc.(RackLocator)
	if !ok || !t.IsInput() {
		return false
	}
	rack := rl.Rack(node)
	for _, n := range rl.Locations(t.Block) {
		if rl.Rack(n) == rack {
			return true
		}
	}
	return false
}

func (d *refDelay) Offer(e *cluster.Executor, now float64) *app.Task {
	node := e.Node.ID
	if d.Hint != nil {
		for i, t := range d.queue {
			if id, ok := d.Hint(t); ok && id == e.ID {
				return d.take(i)
			}
		}
	}
	for i, t := range d.queue {
		if refLocalOn(d.Loc, t, node) {
			return d.take(i)
		}
	}
	for i, t := range d.queue {
		if !refHasPreference(d.Loc, t) {
			return d.take(i)
		}
	}
	if d.RackWait > 0 {
		for i, t := range d.queue {
			if now-t.ReadyAt >= d.Wait && d.rackLocalOn(t, node) {
				return d.take(i)
			}
		}
	}
	for i, t := range d.queue {
		if now-t.ReadyAt >= d.Wait+d.RackWait {
			return d.take(i)
		}
	}
	return nil
}

func (d *refDelay) take(i int) *app.Task {
	t := d.queue[i]
	d.queue = append(d.queue[:i], d.queue[i+1:]...)
	return t
}

func (d *refDelay) PendingTasks() []*app.Task {
	return append([]*app.Task(nil), d.queue...)
}

func (d *refDelay) NextDeadline(now float64) (float64, bool) {
	earliest := math.Inf(1)
	for _, t := range d.queue {
		if !refHasPreference(d.Loc, t) {
			continue
		}
		for _, dl := range [2]float64{t.ReadyAt + d.Wait, t.ReadyAt + d.Wait + d.RackWait} {
			if dl > now && dl < earliest {
				earliest = dl
			}
		}
	}
	if math.IsInf(earliest, 1) {
		return 0, false
	}
	return earliest, true
}

func (d *refDelay) Remove(t *app.Task) bool {
	for i, q := range d.queue {
		if q == t {
			d.take(i)
			return true
		}
	}
	return false
}

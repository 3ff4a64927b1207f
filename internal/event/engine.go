// Package event provides a deterministic discrete-event simulation engine.
//
// Events are ordered by (time, tie-stamp), so two events scheduled for the
// same instant fire in the order they were scheduled. All times are in
// seconds, represented as float64. The engine is single-threaded by design:
// simulations built on it are fully deterministic given a fixed seed.
//
// The queue is a 4-ary heap with lazy cancellation: Cancel marks the handle
// and the queue discards it when it reaches the root, so cancelling under
// netsim/chaos timer churn is O(1) instead of an O(n) removal. When more
// than half the queue (and more than a fixed floor) is dead, the queue is
// compacted in one pass.
//
// A subsystem that batches its own work can let the engine decide when to
// settle it. ReserveSeq hands out a tie-stamp now for an event that will be
// scheduled later with AtSeq, and Defer registers a function the engine runs
// before it fires any event ordered after (now, last reserved tie-stamp) and
// before Step, Run or RunUntil return. A deferred function that schedules
// under the reserved stamp therefore leaves the event order exactly as if
// the event had been scheduled when the stamp was reserved.
package event

import (
	"fmt"
	"math"
)

// Timer is a handle to a scheduled event. It can be used to cancel the event
// before it fires.
type Timer struct {
	time      float64
	seq       uint64 // tie-stamp: schedule order within an instant
	fn        func()
	cancelled bool
	inQueue   bool
}

// Time returns the simulated time at which the timer fires.
func (t *Timer) Time() float64 { return t.time }

// Cancelled reports whether Cancel was called on the timer.
func (t *Timer) Cancelled() bool { return t.cancelled }

// Engine is a discrete-event simulation engine.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	pq       []*Timer // 4-ary min-heap by (time, seq)
	ncancel  int      // cancelled timers still in pq
	now      float64
	seq      uint64
	executed uint64
	running  bool
	stopped  bool
	horizon  float64 // RunUntil limit; +Inf when unused

	// deferred functions run before the engine fires an event ordered after
	// (resTime, resSeq), the instant and value of the last ReserveSeq.
	deferred []func()
	resTime  float64
	resSeq   uint64
}

// compactFloor is the minimum number of dead entries before a compaction is
// worth a full pass; below it the lazy discards at the root are cheaper.
const compactFloor = 32

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{horizon: math.Inf(1)}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Executed returns the number of events that have fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events currently scheduled (including
// cancelled events that have not yet been discarded).
func (e *Engine) Pending() int { return len(e.pq) }

// Schedule schedules fn to run delay seconds from now and returns a handle
// that may be used to cancel it. A negative delay is treated as zero.
// Panics if delay is NaN.
func (e *Engine) Schedule(delay float64, fn func()) *Timer {
	if math.IsNaN(delay) {
		panic("event: Schedule called with NaN delay")
	}
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At schedules fn to run at absolute time t, which must not be in the past.
func (e *Engine) At(t float64, fn func()) *Timer {
	seq := e.seq
	e.seq++
	return e.AtSeq(t, seq, fn)
}

// ReserveSeq hands out a tie-stamp now for an event to be scheduled later
// with AtSeq. The event then sorts among same-time events as if At had been
// called at the moment of the reservation.
func (e *Engine) ReserveSeq() uint64 {
	s := e.seq
	e.seq++
	e.resTime, e.resSeq = e.now, s
	return s
}

// AtSeq schedules fn at absolute time t, which must not be in the past,
// under a tie-stamp already handed out by the engine (ReserveSeq).
func (e *Engine) AtSeq(t float64, seq uint64, fn func()) *Timer {
	if fn == nil {
		panic("event: scheduled a nil function")
	}
	if t < e.now {
		panic(fmt.Sprintf("event: scheduled at time %v < now %v", t, e.now))
	}
	if seq >= e.seq {
		panic(fmt.Sprintf("event: scheduled under unreserved tie-stamp %d", seq))
	}
	tm := &Timer{time: t, seq: seq, fn: fn, inQueue: true}
	e.push(tm)
	return tm
}

// Defer registers fn to run before the engine fires any event ordered after
// (now, last reserved tie-stamp): every event at a later time, and every
// same-instant event scheduled after the last ReserveSeq. Deferred
// functions also run before Step, Run and RunUntil return on an empty
// queue, past the RunUntil horizon, or after Stop. They run in
// registration order, and may schedule events; an event they schedule at
// or before the horizon still fires within the same RunUntil.
func (e *Engine) Defer(fn func()) {
	if fn == nil {
		panic("event: Defer called with nil function")
	}
	e.deferred = append(e.deferred, fn)
}

// runDeferred runs and clears the deferred functions, including any they
// register themselves.
func (e *Engine) runDeferred() {
	for i := 0; i < len(e.deferred); i++ {
		e.deferred[i]()
	}
	clear(e.deferred)
	e.deferred = e.deferred[:0]
}

// Cancel cancels a previously scheduled timer in O(1): the handle is marked
// and the queue discards it lazily. Cancelling a nil timer or a timer that
// has already fired is a no-op.
func (e *Engine) Cancel(t *Timer) {
	if t == nil || t.cancelled {
		return
	}
	t.cancelled = true
	if !t.inQueue {
		return
	}
	e.ncancel++
	if e.ncancel > compactFloor && e.ncancel > len(e.pq)/2 {
		e.compact()
	}
}

// Step executes the next pending event, if any, and reports whether an event
// was executed. Cancelled events are discarded without counting as a step.
// Deferred functions run first when the next event is ordered after the
// last reserved tie-stamp, or when there is no event to execute.
func (e *Engine) Step() bool {
	for {
		var tm *Timer
		if len(e.pq) > 0 {
			tm = e.pq[0]
			if tm.cancelled {
				e.popRoot()
				e.ncancel--
				continue
			}
		}
		if len(e.deferred) > 0 && (tm == nil || tm.time > e.resTime || tm.seq > e.resSeq) {
			e.runDeferred()
			continue // the deferred functions may have scheduled an earlier event
		}
		if tm == nil || tm.time > e.horizon {
			return false // empty, or past the run horizon; leave it queued
		}
		e.popRoot()
		e.now = tm.time
		e.executed++
		tm.fn()
		return true
	}
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.horizon = math.Inf(1)
	e.loop()
}

// RunUntil executes events with time <= t, then advances the clock to t.
// Events scheduled for later remain pending.
func (e *Engine) RunUntil(t float64) {
	if t < e.now {
		panic(fmt.Sprintf("event: RunUntil(%v) is in the past (now=%v)", t, e.now))
	}
	e.horizon = t
	e.loop()
	e.horizon = math.Inf(1)
	if !e.stopped && e.now < t {
		e.now = t
	}
	e.stopped = false
}

// Stop aborts a Run or RunUntil in progress after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

func (e *Engine) loop() {
	if e.running {
		panic("event: re-entrant Run")
	}
	e.running = true
	defer func() { e.running = false }()
	for !e.stopped && e.Step() {
	}
	e.runDeferred() // after Stop; Step has already run them otherwise
	if e.stopped && e.horizon == math.Inf(1) {
		e.stopped = false
	}
}

// ---- 4-ary min-heap by (time, seq) ----

//custody:noalloc
func timerLess(a, b *Timer) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

//custody:noalloc
func (e *Engine) push(tm *Timer) {
	e.pq = append(e.pq, tm) //custody:ignore noalloc pq reuses capacity released by pops; growth stops once the in-flight timer set is warm
	i := len(e.pq) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !timerLess(e.pq[i], e.pq[parent]) {
			break
		}
		e.pq[i], e.pq[parent] = e.pq[parent], e.pq[i]
		i = parent
	}
}

// popRoot removes the minimum element.
//
//custody:noalloc
func (e *Engine) popRoot() {
	h := e.pq
	n := len(h) - 1
	h[0].inQueue = false
	h[0] = h[n]
	h[n] = nil
	e.pq = h[:n]
	if n > 0 {
		e.siftDown(0)
	}
}

//custody:noalloc
func (e *Engine) siftDown(i int) {
	h := e.pq
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		m := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if timerLess(h[c], h[m]) {
				m = c
			}
		}
		if !timerLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// compact removes every cancelled entry in one pass and restores the heap
// invariant bottom-up.
func (e *Engine) compact() {
	live := e.pq[:0]
	for _, tm := range e.pq {
		if tm.cancelled {
			tm.inQueue = false
			continue
		}
		live = append(live, tm)
	}
	for i := len(live); i < len(e.pq); i++ {
		e.pq[i] = nil
	}
	e.pq = live
	e.ncancel = 0
	for i := (len(live) - 2) / 4; i >= 0; i-- {
		e.siftDown(i)
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/manager"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// span is one timed call across a layer boundary, kept in memory until the
// run ends. Start and End are nanoseconds since the recorder's epoch;
// Parent is the ID of the span that was open when this one began (0 at the
// top level); Run numbers the traced episode the span belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder collects spans for the traced episodes. All benchmark load comes
// from one goroutine, so the open-span stack needs no lock.
type recorder struct {
	epoch time.Time
	run   int
	spans []span
	open  []int // indexes into spans of the currently open spans
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index for end.
func (r *recorder) begin(name string) int {
	parent := 0
	if k := len(r.open); k > 0 {
		parent = r.spans[r.open[k-1]].ID
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Run: r.run, Name: name,
		Start: time.Since(r.epoch).Nanoseconds(),
	})
	i := len(r.spans) - 1
	r.open = append(r.open, i)
	return i
}

// end closes the span begin returned; spans close in LIFO order.
func (r *recorder) end(i int) {
	r.spans[i].End = time.Since(r.epoch).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

// do runs fn inside a span; on a nil recorder it just runs fn.
func (r *recorder) do(name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	i := r.begin(name)
	fn()
	r.end(i)
}

// spanStat sums the spans of one name: how many, their total duration,
// their self time (duration minus the part covered by direct children),
// and each duration in milliseconds.
type spanStat struct {
	Calls  int
	Busy   time.Duration
	Self   time.Duration
	Sample []float64
}

// spanStats maps a span name to its sums.
type spanStats map[string]*spanStat

// get returns the sums for name, zero when no such span was recorded.
func (s spanStats) get(name string) *spanStat {
	if st := s[name]; st != nil {
		return st
	}
	return &spanStat{}
}

// stats sums the spans of one traced run. Span IDs are indexes+1, so a
// parent is found without a lookup table.
func (r *recorder) stats(run int) spanStats {
	out := spanStats{}
	childTime := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent != 0 {
			childTime[s.Parent-1] += time.Duration(s.End - s.Start)
		}
	}
	for i, s := range r.spans {
		if s.Run != run {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.Calls++
		st.Busy += d
		st.Self += d - childTime[i]
		st.Sample = append(st.Sample, float64(d)/float64(time.Millisecond))
	}
	return out
}

// write stores the spans as JSON Lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return errors.Join(fmt.Errorf("spans: %w", err), f.Close())
		}
	}
	if err := w.Flush(); err != nil {
		return errors.Join(fmt.Errorf("spans: %w", err), f.Close())
	}
	return f.Close()
}

// spanManager wraps a manager.Manager and records a span around every call
// the driver makes into it. It changes nothing the manager sees or returns.
type spanManager struct {
	inner manager.Manager
	rec   *recorder
}

// wrapManager returns m behind a span-recording wrapper. The driver
// discovers manager.ExecutorFaultHandler by type assertion, so the wrapper
// implements it exactly when m does.
func wrapManager(m manager.Manager, rec *recorder) manager.Manager {
	sm := &spanManager{inner: m, rec: rec}
	if h, ok := m.(manager.ExecutorFaultHandler); ok {
		return &spanFaultManager{spanManager: sm, h: h}
	}
	return sm
}

func (m *spanManager) Name() string { return m.inner.Name() }

func (m *spanManager) Register(env manager.Env) {
	m.rec.do("manager", func() { m.inner.Register(env) })
}

func (m *spanManager) OnJobSubmit(env manager.Env, a *app.Application, j *app.Job) {
	m.rec.do("manager", func() { m.inner.OnJobSubmit(env, a, j) })
}

func (m *spanManager) OnJobFinish(env manager.Env, a *app.Application, j *app.Job) {
	m.rec.do("manager", func() { m.inner.OnJobFinish(env, a, j) })
}

func (m *spanManager) OnExecutorIdle(env manager.Env, e *cluster.Executor) {
	m.rec.do("manager", func() { m.inner.OnExecutorIdle(env, e) })
}

func (m *spanManager) OnNodeFail(env manager.Env, node int) {
	m.rec.do("manager", func() { m.inner.OnNodeFail(env, node) })
}

// spanFaultManager is spanManager for managers that also handle single
// executor faults.
type spanFaultManager struct {
	*spanManager
	h manager.ExecutorFaultHandler
}

func (m *spanFaultManager) OnExecutorFail(env manager.Env, execID int) {
	m.rec.do("manager", func() { m.h.OnExecutorFail(env, execID) })
}

func (m *spanFaultManager) OnExecutorRecover(env manager.Env, execID int) {
	m.rec.do("manager", func() { m.h.OnExecutorRecover(env, execID) })
}

// spanSelector wraps a hdfs.ReplicaSelector and records a span per pick.
// The driver's default (nil) selection draws exactly what
// hdfs.RandomSelector draws from the same generator, so wrapping
// RandomSelector in place of nil leaves every choice unchanged.
type spanSelector struct {
	inner hdfs.ReplicaSelector
	rec   *recorder
}

func (s *spanSelector) Name() string { return s.inner.Name() }

func (s *spanSelector) Pick(nn *hdfs.NameNode, locs []int, dst int, rng *xrand.Rand) int {
	i := s.rec.begin("hdfs.pick")
	n := s.inner.Pick(nn, locs, dst, rng)
	s.rec.end(i)
	return n
}

// launchCounter is a trace.Tracer that counts task launches, and input
// tasks that finished on a node without their block. Every workload DAG
// builds its input stage first, so stage 0 is the input stage.
type launchCounter struct {
	launches, remote int
}

func (c *launchCounter) Emit(e trace.Event) {
	switch e.Kind {
	case trace.TaskLaunch:
		c.launches++
	case trace.TaskFinish:
		if e.Stage == 0 && !e.Local {
			c.remote++
		}
	}
}

package scheduler

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/xrand"
)

// fakeLoc maps block → replica nodes.
type fakeLoc map[hdfs.BlockID][]int

func (f fakeLoc) Locations(b hdfs.BlockID) []int             { return f[b] }
func (f fakeLoc) HasReplicaOn(b hdfs.BlockID, node int) bool { return slices.Contains(f[b], node) }
func (f fakeLoc) HasReplica(b hdfs.BlockID) bool             { return len(f[b]) > 0 }

func mkCluster() *cluster.Cluster {
	return cluster.New(cluster.Config{Nodes: 4, ExecutorsPerNode: 1})
}

// mkInputTask builds a ready input task reading the given block.
func mkInputTask(job *app.Job, stage *app.Stage, idx int, block hdfs.BlockID, readyAt float64) *app.Task {
	t := &app.Task{Job: job, Stage: stage, Index: idx, Block: block, State: app.TaskReady, ReadyAt: readyAt, RanOnNode: -1}
	return t
}

func mkShuffleTask(job *app.Job, stage *app.Stage, idx int, readyAt float64) *app.Task {
	t := &app.Task{Job: job, Stage: stage, Index: idx, Block: -1, State: app.TaskReady, ReadyAt: readyAt, RanOnNode: -1}
	return t
}

func scaffold() (*app.Job, *app.Stage) {
	a := app.NewApplication(0, "t")
	j := &app.Job{ID: 1, App: a}
	s := &app.Stage{ID: 0, Job: j}
	return j, s
}

func TestDelayPrefersLocal(t *testing.T) {
	j, s := scaffold()
	loc := fakeLoc{0: {2}, 1: {0}}
	d := NewDelay(loc, 3)
	t0 := mkInputTask(j, s, 0, 0, 0) // wants node 2
	t1 := mkInputTask(j, s, 1, 1, 0) // wants node 0
	d.Submit([]*app.Task{t0, t1}, 0)

	c := mkCluster()
	// Executor on node 0: t1 is local there even though t0 is older.
	got := d.Offer(c.Node(0).Executors()[0], 0.1)
	if got != t1 {
		t.Fatalf("Offer(node0) = %v, want the node-local task t1", got)
	}
}

func TestDelayDeclinesThenAccepts(t *testing.T) {
	j, s := scaffold()
	loc := fakeLoc{0: {2}}
	d := NewDelay(loc, 3)
	t0 := mkInputTask(j, s, 0, 0, 0)
	d.Submit([]*app.Task{t0}, 0)
	c := mkCluster()
	e1 := c.Node(1).Executors()[0] // non-local

	if got := d.Offer(e1, 1.0); got != nil {
		t.Fatalf("offer before wait expiry accepted: %v", got)
	}
	if got := d.Offer(e1, 3.0); got != t0 {
		t.Fatalf("offer at wait expiry declined: %v", got)
	}
}

func TestDelayNoPreferenceImmediate(t *testing.T) {
	j, s := scaffold()
	d := NewDelay(fakeLoc{}, 3)
	sh := mkShuffleTask(j, s, 0, 0)
	d.Submit([]*app.Task{sh}, 0)
	c := mkCluster()
	if got := d.Offer(c.Node(3).Executors()[0], 0.0); got != sh {
		t.Fatalf("no-pref task not launched immediately: %v", got)
	}
}

func TestDelayBlockWithNoReplicasIsNoPref(t *testing.T) {
	j, s := scaffold()
	d := NewDelay(fakeLoc{5: {}}, 3)
	t0 := mkInputTask(j, s, 0, 5, 0)
	d.Submit([]*app.Task{t0}, 0)
	c := mkCluster()
	if got := d.Offer(c.Node(1).Executors()[0], 0.0); got != t0 {
		t.Fatal("task with no live replicas should launch anywhere immediately")
	}
}

func TestDelayFIFOWithinLevel(t *testing.T) {
	j, s := scaffold()
	loc := fakeLoc{0: {1}, 1: {1}}
	d := NewDelay(loc, 3)
	t0 := mkInputTask(j, s, 0, 0, 0)
	t1 := mkInputTask(j, s, 1, 1, 0)
	d.Submit([]*app.Task{t0, t1}, 0)
	c := mkCluster()
	if got := d.Offer(c.Node(1).Executors()[0], 0); got != t0 {
		t.Fatalf("same-level tie broke FIFO: %v", got)
	}
}

func TestDelayNextDeadline(t *testing.T) {
	j, s := scaffold()
	loc := fakeLoc{0: {2}, 1: {2}}
	d := NewDelay(loc, 3)
	d.Submit([]*app.Task{mkInputTask(j, s, 0, 0, 1.0), mkInputTask(j, s, 1, 1, 2.0)}, 2.0)
	dl, ok := d.NextDeadline(2.0)
	if !ok || dl != 4.0 {
		t.Fatalf("deadline = %v,%v want 4.0 (1.0+3)", dl, ok)
	}
	// After the first deadline passes, the next one applies.
	dl, ok = d.NextDeadline(4.5)
	if !ok || dl != 5.0 {
		t.Fatalf("second deadline = %v,%v want 5.0", dl, ok)
	}
	// No pending preference tasks → no deadline.
	d2 := NewDelay(fakeLoc{}, 3)
	if _, ok := d2.NextDeadline(0); ok {
		t.Fatal("deadline with empty queue")
	}
}

func TestDelayRemove(t *testing.T) {
	j, s := scaffold()
	d := NewDelay(fakeLoc{}, 3)
	t0 := mkShuffleTask(j, s, 0, 0)
	d.Submit([]*app.Task{t0}, 0)
	if !d.Remove(t0) {
		t.Fatal("Remove failed")
	}
	if d.Pending() != 0 {
		t.Fatal("task still pending after Remove")
	}
	if d.Remove(t0) {
		t.Fatal("double Remove succeeded")
	}
}

func TestFIFOIgnoresLocality(t *testing.T) {
	j, s := scaffold()
	f := NewFIFO()
	t0 := mkInputTask(j, s, 0, 0, 0)
	t1 := mkInputTask(j, s, 1, 1, 0)
	f.Submit([]*app.Task{t0, t1}, 0)
	c := mkCluster()
	if got := f.Offer(c.Node(3).Executors()[0], 0); got != t0 {
		t.Fatalf("FIFO returned %v, want oldest", got)
	}
	if f.Pending() != 1 {
		t.Fatalf("pending = %d", f.Pending())
	}
	if got := f.Offer(c.Node(3).Executors()[0], 0); got != t1 {
		t.Fatalf("FIFO second offer = %v", got)
	}
	if got := f.Offer(c.Node(3).Executors()[0], 0); got != nil {
		t.Fatalf("empty FIFO returned %v", got)
	}
}

func TestLocalityHardNeverCompromises(t *testing.T) {
	j, s := scaffold()
	loc := fakeLoc{0: {2}}
	l := NewLocalityHard(loc)
	t0 := mkInputTask(j, s, 0, 0, 0)
	l.Submit([]*app.Task{t0}, 0)
	c := mkCluster()
	if got := l.Offer(c.Node(1).Executors()[0], 1e9); got != nil {
		t.Fatalf("hard scheduler launched non-locally: %v", got)
	}
	if got := l.Offer(c.Node(2).Executors()[0], 0); got != t0 {
		t.Fatalf("hard scheduler declined a local offer: %v", got)
	}
}

func TestPendingTasksCopy(t *testing.T) {
	j, s := scaffold()
	d := NewDelay(fakeLoc{}, 3)
	t0 := mkShuffleTask(j, s, 0, 0)
	d.Submit([]*app.Task{t0}, 0)
	view := d.PendingTasks()
	view[0] = nil
	if d.PendingTasks()[0] != t0 {
		t.Fatal("PendingTasks exposed internal slice")
	}
}

func TestDelayHintLevelZero(t *testing.T) {
	j, s := scaffold()
	loc := fakeLoc{0: {2}, 1: {1}}
	d := NewDelay(loc, 3)
	t0 := mkInputTask(j, s, 0, 0, 0) // block on node 2
	t1 := mkInputTask(j, s, 1, 1, 0) // block on node 1
	hints := map[*app.Task]int{}
	d.Hint = func(t *app.Task) (int, bool) { e, ok := hints[t]; return e, ok }
	d.Submit([]*app.Task{t0, t1}, 0)
	c := mkCluster()
	e1 := c.Node(1).Executors()[0]
	// t0 is hinted to executor e1 even though its block is elsewhere: the
	// hint wins over t1's node-locality (level 0 < level 1).
	hints[t0] = e1.ID
	if got := d.Offer(e1, 0); got != t0 {
		t.Fatalf("hinted task not taken first: %v", got)
	}
	// Without a hint the normal locality order applies.
	if got := d.Offer(e1, 0); got != t1 {
		t.Fatalf("after hint consumed, local task expected: %v", got)
	}
}

// FuzzDelayEquivalence drives Delay and the frozen refDelay through the
// same random submits, offers, removes and hints over a real NameNode whose
// answers move under them: node death and recommission, re-replication
// commits and aborts, suspension and stale-metadata windows. Offer,
// NextDeadline and PendingTasks must agree at every step.
func FuzzDelayEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 2, 6, 1, 1, 0, 5, 4, 2, 3})
	f.Add([]byte{3, 1, 0, 9, 4, 5, 0, 7, 9, 0, 1, 1, 8, 2, 2, 4, 7, 1, 5, 6, 1, 0})
	f.Add([]byte{1, 2, 0, 3, 0, 16, 9, 0, 6, 2, 6, 0, 7, 1, 7, 0, 2, 5, 9, 1, 1, 3, 3, 2, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		const nodes = 6
		nn := hdfs.NewNameNode(nodes, xrand.New(uint64(data[1])),
			hdfs.WithRacks(2), hdfs.WithBlockSize(100), hdfs.WithReplication(2+int(data[1])%2))
		for _, size := range []int64{300, 200} {
			if _, err := nn.Create(fmt.Sprintf("f%d", size), size); err != nil {
				t.Fatal(err)
			}
		}
		blocks := nn.TotalBlocks()
		c := cluster.New(cluster.Config{Nodes: nodes, ExecutorsPerNode: 1 + int(data[0])%2})
		execs := c.Executors()
		wait := float64(data[0] / 2 % 4)
		got, want := NewDelay(nn, wait), newRefDelay(nn, wait)
		hints := map[*app.Task]int{}
		hint := func(tk *app.Task) (int, bool) { e, ok := hints[tk]; return e, ok }
		got.Hint, want.Hint = hint, hint
		j, s := scaffold()
		var made []*app.Task
		var copies []hdfs.ReplicaCopy
		now := 0.0
		for i := 2; i+1 < len(data); i += 2 {
			op, arg := data[i]%10, int(data[i+1])
			switch op {
			case 0: // submit one or two tasks, ready up to 2 s ago
				var batch []*app.Task
				for k := 0; k <= arg%2 && len(made) < 24; k++ {
					var tk *app.Task
					readyAt := now - float64(arg/2%3)
					if (arg/6)%4 == 0 {
						tk = mkShuffleTask(j, s, len(made), readyAt)
					} else {
						// One block past the namespace: no replicas at all.
						tk = mkInputTask(j, s, len(made), hdfs.BlockID((arg/24+k)%(blocks+1)), readyAt)
					}
					made = append(made, tk)
					batch = append(batch, tk)
				}
				got.Submit(batch, now)
				want.Submit(batch, now)
			case 1, 2: // offer
				e := execs[arg%len(execs)]
				if g, w := got.Offer(e, now), want.Offer(e, now); g != w {
					t.Fatalf("step %d: Offer(exec %d, t=%v) = %v, reference %v", i, e.ID, now, g, w)
				}
			case 3: // remove, queued or not
				if len(made) == 0 {
					continue
				}
				tk := made[arg%len(made)]
				if g, w := got.Remove(tk), want.Remove(tk); g != w {
					t.Fatalf("step %d: Remove = %v, reference %v", i, g, w)
				}
			case 4: // hint a task to an executor, or drop its hint
				if len(made) == 0 {
					continue
				}
				tk := made[arg%len(made)]
				if arg/len(made)%3 == 0 {
					delete(hints, tk)
				} else {
					hints[tk] = execs[arg%len(execs)].ID
				}
			case 5: // time passes
				now += float64(arg%8) / 2
			case 6: // a node dies (or comes back) — re-replication is planned
				n := arg % nodes
				if cs, err := nn.Decommission(n); err == nil {
					copies = append(copies, cs...)
				} else {
					nn.Recommission(n)
				}
			case 7: // a planned copy lands or is abandoned
				if len(copies) == 0 {
					continue
				}
				k := arg % len(copies)
				cp, commit := copies[k], arg/len(copies)%2 == 0
				copies = append(copies[:k], copies[k+1:]...)
				if commit {
					// Fails if the target died first; the copy ends either way.
					_ = nn.CommitReplica(cp.Block, cp.To)
				} else {
					nn.AbortReplica(cp.Block, cp.To)
				}
			case 8: // a DataNode flakes or recovers
				n := arg % nodes
				if !nn.Suspend(n) {
					nn.Resume(n)
				}
			case 9: // stale-metadata window opens or closes
				if !nn.BeginStale() {
					nn.EndStale()
				}
			}
			gd, gok := got.NextDeadline(now)
			wd, wok := want.NextDeadline(now)
			if gd != wd || gok != wok {
				t.Fatalf("step %d: NextDeadline(%v) = %v,%v, reference %v,%v", i, now, gd, gok, wd, wok)
			}
			if g, w := got.PendingTasks(), want.PendingTasks(); !slices.Equal(g, w) {
				t.Fatalf("step %d: pending %v, reference %v", i, g, w)
			}
		}
	})
}

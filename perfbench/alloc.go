package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/policy"
	"repro/internal/xrand"
)

// The allocation-churn workload: a warm core.Session over a 100k-node
// cluster, the one scale where building the executor pool dominates a
// round. Between rounds, outside the timed call, jobs arrive, served tasks
// leave, and executors return to the pool when their tasks end.
const (
	allocNodes        = 100000
	allocExecsPerNode = 2
	allocSlots        = 2
	allocApps         = 8
	allocRounds       = 100 // timed rounds per episode, after the warm round
	allocReplicas     = 3
	allocArrivals     = 4 // jobs submitted each round, to seeded applications
	allocMinTasks     = 10
	allocMaxTasks     = 60
	allocMaxHold      = 3 // rounds an executor stays busy after a grant
)

type churnJob struct {
	id           int
	tasks        []core.TaskDemand
	local, total int // tasks served so far, and how many of them locally
}

type churnApp struct {
	jobs                   []*churnJob
	held                   int
	localJobs, totalJobs   int
	localTasks, totalTasks int
}

// churn is the seed-generated cluster state the allocator sees each round.
type churn struct {
	rng       *xrand.Rand
	round     int
	apps      []churnApp
	owner     []int // executor → app, or -1 when in the pool
	freeAt    []int // executor → round it returns to the pool
	busy      []int // executors currently held
	idle      []core.ExecInfo
	demands   []core.AppDemand
	nextJob   int
	nextBlock hdfs.BlockID
	finished  int // jobs whose every task was served
}

func newChurn(seed uint64) *churn {
	execs := allocNodes * allocExecsPerNode
	c := &churn{
		rng:    xrand.New(seed).Fork("alloc-churn"),
		apps:   make([]churnApp, allocApps),
		owner:  make([]int, execs),
		freeAt: make([]int, execs),
	}
	for i := range c.owner {
		c.owner[i] = -1
	}
	for a := range c.apps {
		c.arrive(a)
		c.arrive(a)
	}
	return c
}

// arrive submits one job of seeded size whose tasks read blocks with
// seeded replica nodes.
func (c *churn) arrive(a int) {
	j := &churnJob{id: c.nextJob}
	c.nextJob++
	n := c.rng.IntRange(allocMinTasks, allocMaxTasks)
	for t := 0; t < n; t++ {
		nodes := make([]int, allocReplicas)
		for r := range nodes {
			nodes[r] = c.rng.Intn(allocNodes)
		}
		j.tasks = append(j.tasks, core.TaskDemand{Task: t, Block: c.nextBlock, Nodes: nodes})
		c.nextBlock++
	}
	c.apps[a].jobs = append(c.apps[a].jobs, j)
}

// next advances to the next round: busy executors whose tasks ended return
// to the pool, new jobs arrive, and the demand and idle snapshots are
// rebuilt.
func (c *churn) next() {
	c.round++
	kept := c.busy[:0]
	for _, e := range c.busy {
		if c.freeAt[e] <= c.round {
			c.apps[c.owner[e]].held--
			c.owner[e] = -1
			continue
		}
		kept = append(kept, e)
	}
	c.busy = kept
	for i := 0; i < allocArrivals; i++ {
		c.arrive(c.rng.Intn(allocApps))
	}
	c.snapshot()
}

// snapshot rebuilds the allocator's inputs from the churn state.
func (c *churn) snapshot() {
	c.idle = c.idle[:0]
	for e, o := range c.owner {
		if o == -1 {
			c.idle = append(c.idle, core.ExecInfo{ID: e, Node: e / allocExecsPerNode, Slots: allocSlots})
		}
	}
	c.demands = c.demands[:0]
	budget := allocNodes * allocExecsPerNode / allocApps
	for a := range c.apps {
		ca := &c.apps[a]
		d := core.AppDemand{
			App: a, Budget: budget, Held: ca.held,
			LocalJobs: ca.localJobs, TotalJobs: ca.totalJobs,
			LocalTasks: ca.localTasks, TotalTasks: ca.totalTasks,
		}
		for _, j := range ca.jobs {
			d.Jobs = append(d.Jobs, core.JobDemand{Job: j.id, Tasks: j.tasks})
		}
		c.demands = append(c.demands, d)
	}
}

// apply carries out a plan: granted executors leave the pool for a seeded
// number of rounds, a local grant serves its task, any other grant serves
// the application's oldest pending task, and jobs with nothing left
// finish.
func (c *churn) apply(plan core.Plan) (grants, local int) {
	for _, as := range plan.Assignments {
		if c.owner[as.Exec] == -1 {
			c.owner[as.Exec] = as.App
			c.freeAt[as.Exec] = c.round + c.rng.IntRange(1, allocMaxHold)
			c.busy = append(c.busy, as.Exec)
			c.apps[as.App].held++
		}
		grants++
		if as.Local {
			local++
		}
		c.serve(as)
	}
	for a := range c.apps {
		ca := &c.apps[a]
		kept := ca.jobs[:0]
		for _, j := range ca.jobs {
			if len(j.tasks) > 0 {
				kept = append(kept, j)
				continue
			}
			c.finished++
			ca.totalJobs++
			if j.local == j.total {
				ca.localJobs++
			}
			ca.totalTasks += j.total
			ca.localTasks += j.local
		}
		ca.jobs = kept
	}
	return grants, local
}

func (c *churn) serve(as core.Assignment) {
	for _, j := range c.apps[as.App].jobs {
		for i, t := range j.tasks {
			if as.Local && (j.id != as.Job || t.Task != as.Task) {
				continue
			}
			j.tasks = append(j.tasks[:i:i], j.tasks[i+1:]...)
			j.total++
			if as.Local {
				j.local++
			}
			return
		}
	}
}

// allocEpisode builds the instance and a session and runs the warm round
// (set-up), then times allocRounds further Session.Allocate calls. Every
// plan, warm round included, must pass policy.Validate.
func allocEpisode(seed uint64, rec *recorder) (episode, error) {
	var ep episode
	opts := core.DefaultOptions()
	var digest strings.Builder
	grants, local := 0, 0
	var objs, bytes uint64 // heap allocations inside the timed calls

	t0 := time.Now()
	var c *churn
	var sess *core.Session
	aside(func() {
		c = newChurn(seed)
		c.snapshot()
		sess = core.NewSession()
	})
	round := func(timed bool) {
		var plan core.Plan
		objs0, bytes0 := allocCounters()
		t := time.Now()
		rec.do("core.Allocate", func() { plan = sess.Allocate(c.demands, c.idle, opts) })
		if timed {
			ep.ops = append(ep.ops, msSince(t))
			objs1, bytes1 := allocCounters()
			objs += objs1 - objs0
			bytes += bytes1 - bytes0
		} else {
			ep.setup = time.Since(t0).Seconds()
		}
		aside(func() {
			rec.do("churn", func() {
				ep.attempted++
				if err := policy.Validate(c.demands, c.idle, plan, opts); err != nil {
					ep.failed++
					ep.problemf("round %d: %v", c.round, err)
				}
				for _, as := range plan.Assignments {
					fmt.Fprintf(&digest, "%d %d %d %d %d %t\n", c.round, as.App, as.Exec, as.Job, as.Task, as.Local)
				}
				g, l := c.apply(plan)
				grants += g
				local += l
				c.next()
				// Validating a plan leaves megabytes of garbage; collect
				// it here so the timed call does not pay for it.
				runtime.GC()
			})
		})
	}

	round(false)
	warmFinished := c.finished
	for r := 0; r < allocRounds; r++ {
		round(true)
	}
	ep.heap = liveHeap()

	ep.jobs = c.finished - warmFinished
	if grants > 0 {
		ep.locality = float64(local) / float64(grants)
	}
	ep.digest = fnvHex(digest.String())
	if rec != nil {
		ep.layers = map[string]float64{
			"core.grants":           float64(grants),
			"core.local_grant_frac": ep.locality,
			"go.allocs":             float64(objs),
			"go.alloc_bytes":        float64(bytes),
		}
	}
	return ep, nil
}

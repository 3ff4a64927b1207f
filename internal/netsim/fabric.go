// Package netsim models data movement as max-min fair fluid flows over a set
// of capacitated resources.
//
// Each simulated node exposes three resources: an uplink, a downlink, and a
// local disk. A transfer (Flow) consumes one or more resources — a local disk
// read uses only {disk[n]}, a remote HDFS read uses {disk[src], up[src],
// down[dst]}, and a shuffle fetch uses {up[src], down[dst]}. Whenever the set
// of active flows changes, rates are recomputed with progressive filling
// (water-filling): repeatedly find the most contended resource, freeze all
// flows crossing it at the fair share, and continue with the residual
// capacities. The result is the classic max-min fair allocation.
//
// The fabric and every resource keep their active flows in ID-ordered
// slices, and the filling state lives on the resources themselves, so a
// refill allocates nothing and each freeze visits only the bottleneck's own
// flows.
//
// Flow completions are event-driven: after every rate change the fabric
// advances each flow's remaining bytes and reschedules a single timer for the
// earliest completion.
//
// Refills are deferred. A change (flow activation, cancel, completion,
// partition, capacity scaling) advances the flows, cancels the completion
// timer, reserves the engine tie-stamp the timer would take, and marks the
// fabric dirty. The engine runs one flush before it fires any event ordered
// after that stamp (event.Engine.Defer), so all changes made at one instant
// cost one refill, and the timer is scheduled under the last reserved stamp.
// A rate that lived for zero simulated time moved no bytes, so every rate,
// completion time and event order equals that of refilling on every change.
// Readers that need current rates (Flows, CheckMaxMin, Utilization) flush
// first.
package netsim

import (
	"fmt"
	"math"

	"repro/internal/event"
)

// ResourceKind identifies what a resource models.
type ResourceKind int

const (
	// Uplink is a node's egress network capacity.
	Uplink ResourceKind = iota
	// Downlink is a node's ingress network capacity.
	Downlink
	// Disk is a node's local storage read/write bandwidth.
	Disk
	// FlowCap is a per-flow private rate limit.
	FlowCap
	// Memory is a node's in-memory block-cache read bandwidth — the serving
	// tier of a warm cache hit, far above disk.
	Memory
)

func (k ResourceKind) String() string {
	switch k {
	case Uplink:
		return "up"
	case Downlink:
		return "down"
	case Disk:
		return "disk"
	case FlowCap:
		return "flowcap"
	case Memory:
		return "mem"
	}
	return "unknown"
}

// Resource is a capacitated link or device shared by flows. A resource
// belongs to one fabric.
type Resource struct {
	Kind     ResourceKind
	Node     int
	Capacity float64 // bytes per second

	flows []*Flow // active flows crossing the resource, ordered by ID

	// Progressive-filling state, valid while epoch equals the owning
	// fabric's refill epoch: unallocated capacity and the number of
	// still-unfrozen flows.
	epoch    uint64
	residual float64
	unfrozen int
}

// Flow is an in-progress transfer across a set of resources.
type Flow struct {
	ID        int64
	Bytes     float64 // total size
	remaining float64
	rate      float64
	resources []*Resource
	done      func()
	started   float64
	finished  bool
	cancelled bool
	src, dst  int // endpoint nodes; -1 for custom flows
}

// Src returns the flow's source node (-1 for custom flows).
func (f *Flow) Src() int { return f.src }

// Dst returns the flow's destination node (-1 for custom flows).
func (f *Flow) Dst() int { return f.dst }

// Rate returns the flow's max-min fair rate in bytes/second as of the
// fabric's last flush. Changes made at the current instant are not
// reflected until the engine moves on to a later event; a caller outside
// the engine should read rates through Fabric.Flows, which flushes first.
func (f *Flow) Rate() float64 { return f.rate }

// Remaining returns the bytes left to transfer as of the last rate update.
func (f *Flow) Remaining() float64 { return f.remaining }

// Started returns the simulated time at which the flow was started.
func (f *Flow) Started() float64 { return f.started }

// Done reports whether the flow completed (not cancelled).
func (f *Flow) Done() bool { return f.finished }

// Fabric owns all node resources and active flows.
type Fabric struct {
	eng     *event.Engine
	up      []*Resource
	down    []*Resource
	disk    []*Resource
	mem     []*Resource
	flows   []*Flow // active flows, ordered by ID
	nextID  int64
	latency float64

	// epoch stamps the resources a refill has initialised; touched lists
	// them in first-touch order (reused across refills).
	epoch   uint64
	touched []*Resource

	lastUpdate float64
	timer      *event.Timer

	// dirty marks changes not yet refilled; seq is the tie-stamp reserved
	// by the last change, under which the flush schedules the timer.
	// flushFn is flush as a func value made once, so registering it with
	// the engine allocates nothing.
	dirty   bool
	seq     uint64
	flushFn func()

	// baseCap remembers a resource's nominal capacity while it is scaled
	// away from it (degraded links, slow disks). Populated lazily on the
	// first scale so capacity adjustments made at construction time (e.g.
	// heterogeneous node speeds) are treated as the baseline.
	baseCap map[*Resource]float64

	// partition, when non-nil, assigns each node to a group; flows crossing
	// group boundaries are throttled through the shared choke resource.
	partition []int
	choke     *Resource

	// TotalBytesMoved accumulates completed flow volume for diagnostics.
	TotalBytesMoved float64
	// CompletedFlows counts flows that ran to completion.
	CompletedFlows int64
	// Changes counts changes to the flow set or to capacities: activations,
	// cancels, completion batches, partition and scaling changes.
	Changes int64
	// Refills counts progressive-filling passes: at most one per instant at
	// which the fabric changed, plus one per reader that found it dirty.
	Refills int64
}

// Config describes per-node capacities in bytes per second.
type Config struct {
	UplinkBps   float64
	DownlinkBps float64
	DiskBps     float64
	// MemoryBps is the in-memory block-cache read bandwidth used by
	// memory-tier reads (TierMemory). Zero defaults to DefaultMemoryBps.
	// Memory resources are inert until a tiered read references them, so
	// the default leaves every disk-tier simulation byte-identical.
	MemoryBps float64
	// LatencySec is a fixed per-transfer setup delay (connection
	// establishment, RPC round-trip) charged before a flow starts moving
	// bytes. Zero disables it.
	LatencySec float64
}

// DefaultMemoryBps is the default memory-tier bandwidth: 10 GB/s, an order
// of magnitude above the testbed's SSD and well above any single link.
const DefaultMemoryBps = 10e9

// LinodeConfig mirrors the paper's testbed (§VI-A1): 2 Gbps uplink,
// 40 Gbps downlink, SSD local storage (~400 MB/s effective).
func LinodeConfig() Config {
	return Config{
		UplinkBps:   2e9 / 8,
		DownlinkBps: 40e9 / 8,
		DiskBps:     400e6,
	}
}

// NewFabric builds a fabric with n nodes, each with the given capacities.
func NewFabric(eng *event.Engine, n int, cfg Config) *Fabric {
	if n <= 0 {
		panic("netsim: NewFabric with n <= 0")
	}
	if cfg.UplinkBps <= 0 || cfg.DownlinkBps <= 0 || cfg.DiskBps <= 0 {
		panic("netsim: NewFabric with non-positive capacity")
	}
	f := &Fabric{
		eng:     eng,
		latency: cfg.LatencySec,
		baseCap: make(map[*Resource]float64),
	}
	f.flushFn = f.flush
	memBps := cfg.MemoryBps
	if memBps <= 0 {
		memBps = DefaultMemoryBps
	}
	for i := 0; i < n; i++ {
		f.up = append(f.up, &Resource{Kind: Uplink, Node: i, Capacity: cfg.UplinkBps})
		f.down = append(f.down, &Resource{Kind: Downlink, Node: i, Capacity: cfg.DownlinkBps})
		f.disk = append(f.disk, &Resource{Kind: Disk, Node: i, Capacity: cfg.DiskBps})
		f.mem = append(f.mem, &Resource{Kind: Memory, Node: i, Capacity: memBps})
	}
	return f
}

// Tier selects the storage tier a read is served from.
type Tier int

const (
	// TierDisk serves from the node's local storage.
	TierDisk Tier = iota
	// TierMemory serves from the node's in-memory block cache.
	TierMemory
)

// serving returns node n's serving resource for a tier.
func (fb *Fabric) serving(n int, tier Tier) *Resource {
	if tier == TierMemory {
		return fb.mem[n]
	}
	return fb.disk[n]
}

// Nodes returns the number of nodes in the fabric.
func (fb *Fabric) Nodes() int { return len(fb.up) }

// ActiveFlows returns the number of flows currently in flight.
func (fb *Fabric) ActiveFlows() int { return len(fb.flows) }

// LocalRead starts a disk-only read of the given size on node n.
func (fb *Fabric) LocalRead(n int, bytes float64, done func()) *Flow {
	return fb.LocalReadTier(n, bytes, TierDisk, done)
}

// LocalReadTier starts a node-local read served from the given tier: the
// flow consumes the node's disk (TierDisk) or its cache-memory bandwidth
// (TierMemory, a warm block-cache hit).
func (fb *Fabric) LocalReadTier(n int, bytes float64, tier Tier, done func()) *Flow {
	return fb.start(n, n, bytes, done, fb.serving(n, tier))
}

// RemoteRead starts a read of a block stored on src delivered to dst:
// it consumes the source disk, the source uplink and the destination
// downlink.
func (fb *Fabric) RemoteRead(src, dst int, bytes float64, done func()) *Flow {
	return fb.RemoteReadCap(src, dst, bytes, 0, done)
}

// RemoteReadCap is RemoteRead with an additional per-flow rate cap in
// bytes/second (0 = uncapped), modeling protocol overhead on single-stream
// remote block reads (HDFS remote reads do not reach line rate; the paper
// cites network reads as "as much as 20 times slower than local data
// access", §III-C). The cap is realized as a private resource of the flow,
// so max-min fairness still applies below it.
func (fb *Fabric) RemoteReadCap(src, dst int, bytes, capBps float64, done func()) *Flow {
	return fb.RemoteReadCapTier(src, dst, bytes, capBps, TierDisk, done)
}

// RemoteReadCapTier is RemoteReadCap with the source's serving tier made
// explicit: a warm cache hit on src streams from its memory bandwidth
// instead of its disk, leaving the disk free for other readers — the
// network path (src uplink, dst downlink, optional per-flow cap) is
// unchanged.
func (fb *Fabric) RemoteReadCapTier(src, dst int, bytes, capBps float64, tier Tier, done func()) *Flow {
	if src == dst {
		return fb.LocalReadTier(src, bytes, tier, done)
	}
	res := []*Resource{fb.serving(src, tier), fb.up[src], fb.down[dst]}
	if capBps > 0 {
		res = append(res, &Resource{Kind: FlowCap, Node: dst, Capacity: capBps})
	}
	return fb.start(src, dst, bytes, done, res...)
}

// Transfer starts a memory-to-memory network transfer (e.g., a shuffle
// fetch) consuming the source uplink and destination downlink.
func (fb *Fabric) Transfer(src, dst int, bytes float64, done func()) *Flow {
	if src == dst {
		// Node-local shuffle data short-circuits the network; model it as a
		// (fast) local disk read of the map output.
		return fb.LocalRead(src, bytes, done)
	}
	return fb.start(src, dst, bytes, done, fb.up[src], fb.down[dst])
}

// StartCustom starts a flow over an explicit resource set. Intended for
// tests and extensions. Custom flows carry no endpoints and are exempt from
// partitions.
func (fb *Fabric) StartCustom(bytes float64, done func(), resources ...*Resource) *Flow {
	return fb.start(-1, -1, bytes, done, resources...)
}

// UplinkResource exposes node n's uplink (for StartCustom and tests).
func (fb *Fabric) UplinkResource(n int) *Resource { return fb.up[n] }

// DownlinkResource exposes node n's downlink.
func (fb *Fabric) DownlinkResource(n int) *Resource { return fb.down[n] }

// DiskResource exposes node n's disk.
func (fb *Fabric) DiskResource(n int) *Resource { return fb.disk[n] }

// MemoryResource exposes node n's cache-memory bandwidth.
func (fb *Fabric) MemoryResource(n int) *Resource { return fb.mem[n] }

func (fb *Fabric) start(src, dst int, bytes float64, done func(), resources ...*Resource) *Flow {
	if bytes < 0 || math.IsNaN(bytes) {
		panic(fmt.Sprintf("netsim: flow with invalid size %v", bytes))
	}
	if len(resources) == 0 {
		panic("netsim: flow with no resources")
	}
	fb.nextID++
	fl := &Flow{
		ID:        fb.nextID,
		Bytes:     bytes,
		remaining: bytes,
		resources: resources,
		done:      done,
		started:   fb.eng.Now(),
		src:       src,
		dst:       dst,
	}
	if bytes == 0 {
		// Zero-byte flows complete after the setup latency without
		// touching the rate allocation.
		fb.eng.Schedule(fb.latency, func() {
			if fl.cancelled {
				return
			}
			fl.finished = true
			fb.CompletedFlows++
			if done != nil {
				done()
			}
		})
		return fl
	}
	if fb.latency > 0 {
		// Charge connection setup before the flow contends for bandwidth.
		fb.eng.Schedule(fb.latency, func() {
			if fl.cancelled {
				return
			}
			fb.activate(fl)
		})
		return fl
	}
	fb.activate(fl)
	return fl
}

// activate admits a flow into the fluid rate allocation. Partition
// membership is decided here, when the flow starts moving bytes, not when
// it was requested: a flow still in setup latency crosses no boundary.
func (fb *Fabric) activate(fl *Flow) {
	fb.advance()
	if fb.crossesPartition(fl.src, fl.dst) {
		fl.resources = append(fl.resources, fb.choke)
	}
	fb.flows = insertFlow(fb.flows, fl)
	for _, r := range fl.resources {
		r.flows = insertFlow(r.flows, fl)
	}
	fb.changed()
}

// Cancel aborts a flow in flight. Its done callback never runs. Cancelling a
// finished or already-cancelled flow is a no-op.
func (fb *Fabric) Cancel(fl *Flow) {
	if fl == nil || fl.finished || fl.cancelled {
		return
	}
	fl.cancelled = true
	fb.advance()
	fb.detach(fl)
	fb.changed()
}

// detach removes a flow from the fabric's and its resources' lists; a flow
// that never activated is on none of them.
func (fb *Fabric) detach(fl *Flow) {
	fb.flows = removeFlow(fb.flows, fl)
	for _, r := range fl.resources {
		r.flows = removeFlow(r.flows, fl)
	}
}

// insertFlow adds fl to an ID-ordered list. Flows activate in ID order (one
// setup latency for all, FIFO timers), so the backward scan stops at once;
// it keeps the list ordered should that ever change.
func insertFlow(list []*Flow, fl *Flow) []*Flow {
	i := len(list)
	for i > 0 && list[i-1].ID > fl.ID {
		i--
	}
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = fl
	return list
}

// removeFlow deletes one occurrence of fl from an ID-ordered list, if
// present.
func removeFlow(list []*Flow, fl *Flow) []*Flow {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid].ID < fl.ID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(list) || list[lo] != fl {
		return list
	}
	copy(list[lo:], list[lo+1:])
	list[len(list)-1] = nil
	return list[:len(list)-1]
}

// advance applies elapsed progress to every active flow at the current rates.
func (fb *Fabric) advance() {
	now := fb.eng.Now()
	dt := now - fb.lastUpdate
	fb.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, fl := range fb.flows {
		fl.remaining -= fl.rate * dt
		if fl.remaining < 0 {
			fl.remaining = 0
		}
	}
}

// changed records a change to the flow set or to a capacity, made after
// advance: it cancels the completion timer, reserves the tie-stamp a refill
// here would have scheduled it under, and leaves the refill to the flush.
func (fb *Fabric) changed() {
	if fb.timer != nil {
		fb.eng.Cancel(fb.timer)
		fb.timer = nil
	}
	fb.Changes++
	fb.seq = fb.eng.ReserveSeq()
	if !fb.dirty {
		fb.dirty = true
		fb.eng.Defer(fb.flushFn)
	}
}

// flush refills the rates if the fabric changed since the last refill.
func (fb *Fabric) flush() {
	if fb.dirty {
		fb.dirty = false
		fb.reallocate()
	}
}

// reallocate recomputes max-min fair rates via progressive filling and
// schedules the completion timer under the last reserved tie-stamp.
//
// Every iteration runs over ID-ordered lists, and the bottleneck is the
// first-touched resource with the smallest share, so tie-breaking and the
// order of each resource's residual subtractions (hence every rate, bit for
// bit) are reproducible run to run.
func (fb *Fabric) reallocate() {
	if len(fb.flows) == 0 {
		return
	}
	fb.Refills++

	fb.epoch++
	touched := fb.touched[:0]
	for _, fl := range fb.flows {
		fl.rate = -1 // unfrozen marker
		for _, r := range fl.resources {
			if r.epoch != fb.epoch {
				r.epoch = fb.epoch
				r.residual = r.Capacity
				r.unfrozen = 0
				touched = append(touched, r)
			}
			r.unfrozen++
		}
	}
	remaining := len(fb.flows)
	for remaining > 0 {
		// Find the bottleneck: the resource with the smallest fair share
		// (first touched wins ties).
		var bottleneck *Resource
		best := math.Inf(1)
		for _, r := range touched {
			if r.unfrozen == 0 {
				continue
			}
			share := r.residual / float64(r.unfrozen)
			if share < best {
				best = share
				bottleneck = r
			}
		}
		if bottleneck == nil {
			// No contended resources left; should not happen since every
			// flow crosses at least one resource.
			panic("netsim: progressive filling found no bottleneck")
		}
		// Freeze every unfrozen flow crossing the bottleneck at the share,
		// in flow-ID order.
		for _, fl := range bottleneck.flows {
			if fl.rate >= 0 {
				continue
			}
			fl.rate = best
			remaining--
			for _, r := range fl.resources {
				r.residual -= best
				if r.residual < 0 {
					r.residual = 0
				}
				r.unfrozen--
			}
		}
	}
	clear(touched) // drop references to detached per-flow resources
	fb.touched = touched[:0]

	// Schedule the earliest completion.
	soonest := math.Inf(1)
	for _, fl := range fb.flows {
		if fl.rate <= 0 {
			continue
		}
		t := fl.remaining / fl.rate
		if t < soonest {
			soonest = t
		}
	}
	if math.IsInf(soonest, 1) {
		panic("netsim: active flows but no positive rates")
	}
	fb.timer = fb.eng.AtSeq(fb.eng.Now()+soonest, fb.seq, fb.onCompletion)
}

// onCompletion fires when at least one flow should have drained.
func (fb *Fabric) onCompletion() {
	fb.timer = nil
	fb.advance()
	const eps = 1e-9
	now := fb.eng.Now()
	var finished []*Flow
	for _, fl := range fb.flows {
		// A residue whose drain time is below the clock's resolution at
		// now counts as drained too: its completion could only be
		// rescheduled at this same instant, forever.
		if fl.remaining <= fl.Bytes*eps+eps || now+fl.remaining/fl.rate == now {
			finished = append(finished, fl)
		}
	}
	for _, fl := range finished {
		fl.remaining = 0
		fl.finished = true
		fb.detach(fl)
		fb.TotalBytesMoved += fl.Bytes
		fb.CompletedFlows++
	}
	fb.changed()
	// Run callbacks after the finished flows are detached; flows the
	// callbacks start join the same flush.
	for _, fl := range finished {
		if fl.done != nil {
			fl.done()
		}
	}
}

// Flows flushes pending changes and returns a copy of the active flows
// ordered by ID (audits and tests).
func (fb *Fabric) Flows() []*Flow {
	fb.flush()
	return append([]*Flow(nil), fb.flows...)
}

// Partitioned reports whether a network partition is in effect.
func (fb *Fabric) Partitioned() bool { return fb.partition != nil }

// crossesPartition reports whether a flow between the endpoints would span
// the active partition boundary.
func (fb *Fabric) crossesPartition(src, dst int) bool {
	return fb.partition != nil && src >= 0 && dst >= 0 && fb.partition[src] != fb.partition[dst]
}

// SetPartition splits the fabric into groups (groups[node] is the node's
// group id): flows crossing a group boundary — in-flight and new — are
// throttled through a single shared choke of chokeBps bytes/second, the
// fluid-model stand-in for a partition where only a trickle of traffic
// leaks across. Replaces any partition already in effect.
func (fb *Fabric) SetPartition(groups []int, chokeBps float64) {
	if len(groups) != len(fb.up) {
		panic(fmt.Sprintf("netsim: SetPartition with %d groups for %d nodes", len(groups), len(fb.up)))
	}
	if chokeBps <= 0 {
		panic("netsim: SetPartition with non-positive choke capacity")
	}
	if fb.partition != nil {
		fb.ClearPartition()
	}
	fb.advance()
	fb.partition = append([]int(nil), groups...)
	fb.choke = &Resource{Kind: FlowCap, Node: -1, Capacity: chokeBps}
	for _, fl := range fb.flows {
		if fb.crossesPartition(fl.src, fl.dst) {
			fl.resources = append(fl.resources, fb.choke)
			fb.choke.flows = append(fb.choke.flows, fl) // fb.flows is ID-ordered
		}
	}
	fb.changed()
}

// ClearPartition heals the partition: choked flows regain their normal
// max-min fair rates.
func (fb *Fabric) ClearPartition() {
	if fb.partition == nil {
		return
	}
	fb.advance()
	for _, fl := range fb.choke.flows {
		for i, r := range fl.resources {
			if r == fb.choke {
				fl.resources = append(fl.resources[:i], fl.resources[i+1:]...)
				break
			}
		}
	}
	fb.partition = nil
	fb.choke = nil
	fb.changed()
}

// scale sets a resource's capacity to factor × its nominal capacity,
// remembering the nominal value across repeated scalings.
func (fb *Fabric) scale(r *Resource, factor float64) {
	if factor <= 0 || math.IsNaN(factor) {
		panic(fmt.Sprintf("netsim: scale with invalid factor %v", factor))
	}
	base, ok := fb.baseCap[r]
	if !ok {
		base = r.Capacity
		fb.baseCap[r] = base
	}
	r.Capacity = base * factor
	if factor == 1 {
		delete(fb.baseCap, r)
	}
}

// ScaleLinks degrades (or restores, with factor 1) a node's uplink and
// downlink to factor × nominal capacity. In-flight flows re-converge to the
// new max-min fair rates immediately.
func (fb *Fabric) ScaleLinks(node int, factor float64) {
	fb.advance()
	fb.scale(fb.up[node], factor)
	fb.scale(fb.down[node], factor)
	fb.changed()
}

// ScaleDisk degrades (or restores, with factor 1) a node's disk bandwidth
// to factor × nominal capacity — a slow-disk straggler.
func (fb *Fabric) ScaleDisk(node int, factor float64) {
	fb.advance()
	fb.scale(fb.disk[node], factor)
	fb.changed()
}

// Utilization returns the fraction of a resource's capacity currently
// allocated, after flushing pending changes; useful in tests and metrics.
func (fb *Fabric) Utilization(r *Resource) float64 {
	fb.flush()
	sum := 0.0
	for _, fl := range r.flows {
		sum += fl.rate
	}
	return sum / r.Capacity
}

// CheckMaxMin certifies the current rates as the max-min fair allocation
// without reference to how they were computed: no resource carries more
// than its capacity, and every active flow crosses a saturated resource on
// which no other flow has a higher rate — a bottleneck in the sense of
// Bertsekas & Gallager, Data Networks §6.5. Comparisons allow a relative
// error of 1e-9 for the rounding of progressive filling.
func (fb *Fabric) CheckMaxMin() error {
	fb.flush()
	const tol = 1e-9
	type load struct{ sum, max float64 }
	loads := make(map[*Resource]load)
	loadOf := func(r *Resource) load {
		l, ok := loads[r]
		if !ok {
			for _, fl := range r.flows {
				l.sum += fl.rate
				l.max = math.Max(l.max, fl.rate)
			}
			loads[r] = l
		}
		return l
	}
	for _, fl := range fb.flows {
		if !(fl.rate >= 0) || math.IsInf(fl.rate, 0) {
			return fmt.Errorf("flow %d has rate %v", fl.ID, fl.rate)
		}
		bottlenecked := false
		for _, r := range fl.resources {
			l := loadOf(r)
			if l.sum > r.Capacity*(1+tol) {
				return fmt.Errorf("%v[%d] carries %v over its capacity %v", r.Kind, r.Node, l.sum, r.Capacity)
			}
			if l.sum >= r.Capacity*(1-tol) && l.max <= fl.rate*(1+tol) {
				bottlenecked = true
			}
		}
		if !bottlenecked {
			return fmt.Errorf("flow %d at rate %v has no bottleneck: every resource it crosses has spare capacity or a faster flow", fl.ID, fl.rate)
		}
	}
	return nil
}

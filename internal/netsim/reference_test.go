package netsim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/event"
)

// refFabric is the fabric as it stood before refills became incremental,
// frozen as the oracle for FuzzFabricEquivalence. Active flows live in
// maps; every refill sorts them by ID, keeps its progressive-filling state
// in a fresh per-call map, and scans every flow through crosses in each
// bottleneck round. Two fixes made since are carried here so that the two
// fabrics stay comparable: the choke attaches when a flow activates, not
// when it starts, and a residue below the clock's resolution completes.
type refFabric struct {
	eng     *event.Engine
	up      []*Resource
	down    []*Resource
	disk    []*Resource
	mem     []*Resource
	flows   map[*Flow]struct{}
	on      map[*Resource]map[*Flow]struct{} // active flows per resource
	nextID  int64
	latency float64

	lastUpdate float64
	timer      *event.Timer
	baseCap    map[*Resource]float64
	partition  []int
	choke      *Resource
}

func newRefFabric(eng *event.Engine, n int, cfg Config) *refFabric {
	f := &refFabric{
		eng:     eng,
		flows:   make(map[*Flow]struct{}),
		on:      make(map[*Resource]map[*Flow]struct{}),
		latency: cfg.LatencySec,
		baseCap: make(map[*Resource]float64),
	}
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

func (fb *refFabric) serving(n int, tier Tier) *Resource {
	if tier == TierMemory {
		return fb.mem[n]
	}
	return fb.disk[n]
}

func (fb *refFabric) LocalReadTier(n int, bytes float64, tier Tier, done func()) *Flow {
	return fb.start(n, n, bytes, done, fb.serving(n, tier))
}

func (fb *refFabric) RemoteReadCapTier(src, dst int, bytes, capBps float64, tier Tier, done func()) *Flow {
	if src == dst {
		return fb.LocalReadTier(src, bytes, tier, done)
	}
	res := []*Resource{fb.serving(src, tier), fb.up[src], fb.down[dst]}
	if capBps > 0 {
		res = append(res, &Resource{Kind: FlowCap, Node: dst, Capacity: capBps})
	}
	return fb.start(src, dst, bytes, done, res...)
}

func (fb *refFabric) Transfer(src, dst int, bytes float64, done func()) *Flow {
	if src == dst {
		return fb.LocalReadTier(src, bytes, TierDisk, done)
	}
	return fb.start(src, dst, bytes, done, fb.up[src], fb.down[dst])
}

func (fb *refFabric) start(src, dst int, bytes float64, done func(), resources ...*Resource) *Flow {
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
		fb.eng.Schedule(fb.latency, func() {
			if fl.cancelled {
				return
			}
			fl.finished = true
			if done != nil {
				done()
			}
		})
		return fl
	}
	if fb.latency > 0 {
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

func (fb *refFabric) activate(fl *Flow) {
	fb.advance()
	if fb.crossesPartition(fl.src, fl.dst) {
		fl.resources = append(fl.resources, fb.choke)
	}
	fb.flows[fl] = struct{}{}
	for _, r := range fl.resources {
		if fb.on[r] == nil {
			fb.on[r] = make(map[*Flow]struct{})
		}
		fb.on[r][fl] = struct{}{}
	}
	fb.reallocate()
}

func (fb *refFabric) Cancel(fl *Flow) {
	if fl == nil || fl.finished || fl.cancelled {
		return
	}
	fl.cancelled = true
	fb.advance()
	fb.detach(fl)
	fb.reallocate()
}

func (fb *refFabric) detach(fl *Flow) {
	delete(fb.flows, fl)
	for _, r := range fl.resources {
		delete(fb.on[r], fl)
	}
}

func (fb *refFabric) advance() {
	now := fb.eng.Now()
	dt := now - fb.lastUpdate
	fb.lastUpdate = now
	if dt <= 0 {
		return
	}
	for fl := range fb.flows {
		fl.remaining -= fl.rate * dt
		if fl.remaining < 0 {
			fl.remaining = 0
		}
	}
}

// reallocate is the pre-incremental progressive filling, verbatim.
func (fb *refFabric) reallocate() {
	if fb.timer != nil {
		fb.eng.Cancel(fb.timer)
		fb.timer = nil
	}
	if len(fb.flows) == 0 {
		return
	}

	// Progressive filling. residual[r] tracks unallocated capacity;
	// unfrozen[r] the number of still-unfrozen flows on r. All iteration
	// happens over deterministically ordered slices so tie-breaking (and
	// floating-point accumulation order) is reproducible run to run.
	type rstate struct {
		residual float64
		unfrozen int
	}
	states := make(map[*Resource]*rstate)
	var active []*Resource // deterministic order of first touch
	flows := fb.sortedFlows()
	for _, fl := range flows {
		fl.rate = -1 // unfrozen marker
		for _, r := range fl.resources {
			st, ok := states[r]
			if !ok {
				st = &rstate{residual: r.Capacity}
				states[r] = st
				active = append(active, r)
			}
			st.unfrozen++
		}
	}
	remaining := len(flows)
	for remaining > 0 {
		// Find the bottleneck: the resource with the smallest fair share
		// (first touched wins ties).
		var bottleneck *Resource
		best := math.Inf(1)
		for _, r := range active {
			st := states[r]
			if st.unfrozen == 0 {
				continue
			}
			share := st.residual / float64(st.unfrozen)
			if share < best {
				best = share
				bottleneck = r
			}
		}
		if bottleneck == nil {
			panic("netsim: progressive filling found no bottleneck")
		}
		// Freeze every unfrozen flow crossing the bottleneck at the share,
		// in flow-ID order.
		for _, fl := range flows {
			if fl.rate >= 0 || !crosses(fl, bottleneck) {
				continue
			}
			fl.rate = best
			remaining--
			for _, r := range fl.resources {
				st := states[r]
				st.residual -= best
				if st.residual < 0 {
					st.residual = 0
				}
				st.unfrozen--
			}
		}
	}

	soonest := math.Inf(1)
	for fl := range fb.flows {
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
	fb.timer = fb.eng.Schedule(soonest, fb.onCompletion)
}

// sortedFlows returns the active flows ordered by ID.
func (fb *refFabric) sortedFlows() []*Flow {
	out := make([]*Flow, 0, len(fb.flows))
	for fl := range fb.flows {
		out = append(out, fl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// crosses reports whether fl uses resource r.
func crosses(fl *Flow, r *Resource) bool {
	for _, rr := range fl.resources {
		if rr == r {
			return true
		}
	}
	return false
}

func (fb *refFabric) onCompletion() {
	fb.timer = nil
	fb.advance()
	const eps = 1e-9
	now := fb.eng.Now()
	var finished []*Flow
	for _, fl := range fb.sortedFlows() {
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
	}
	fb.reallocate()
	for _, fl := range finished {
		if fl.done != nil {
			fl.done()
		}
	}
}

func (fb *refFabric) crossesPartition(src, dst int) bool {
	return fb.partition != nil && src >= 0 && dst >= 0 && fb.partition[src] != fb.partition[dst]
}

func (fb *refFabric) SetPartition(groups []int, chokeBps float64) {
	if fb.partition != nil {
		fb.ClearPartition()
	}
	fb.advance()
	fb.partition = append([]int(nil), groups...)
	fb.choke = &Resource{Kind: FlowCap, Node: -1, Capacity: chokeBps}
	fb.on[fb.choke] = make(map[*Flow]struct{})
	for _, fl := range fb.sortedFlows() {
		if fb.crossesPartition(fl.src, fl.dst) {
			fl.resources = append(fl.resources, fb.choke)
			fb.on[fb.choke][fl] = struct{}{}
		}
	}
	fb.reallocate()
}

func (fb *refFabric) ClearPartition() {
	if fb.partition == nil {
		return
	}
	fb.advance()
	for _, fl := range fb.sortedFlows() {
		if _, ok := fb.on[fb.choke][fl]; !ok {
			continue
		}
		for i, r := range fl.resources {
			if r == fb.choke {
				fl.resources = append(fl.resources[:i], fl.resources[i+1:]...)
				break
			}
		}
	}
	delete(fb.on, fb.choke)
	fb.partition = nil
	fb.choke = nil
	fb.reallocate()
}

func (fb *refFabric) scale(r *Resource, factor float64) {
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

func (fb *refFabric) ScaleLinks(node int, factor float64) {
	fb.advance()
	fb.scale(fb.up[node], factor)
	fb.scale(fb.down[node], factor)
	fb.reallocate()
}

func (fb *refFabric) ScaleDisk(node int, factor float64) {
	fb.advance()
	fb.scale(fb.disk[node], factor)
	fb.reallocate()
}

package netsim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/event"
)

// FuzzFabricEquivalence is the gate on the incremental, deferred refill:
// it decodes arbitrary bytes into fabric operations, applies them to a
// Fabric and to refFabric (the eager map-and-sort fabric frozen in
// reference_test.go) on separate engines, and requires the same active
// flows with bit-identical Rate() and Remaining(), the same completions in
// the same order, and a passing CheckMaxMin. Operations cover every flow
// kind (disk and memory tiers, capped and uncapped remote reads,
// transfers), cancels, link and disk scaling, partitions and heals, with
// and without setup latency.
//
// An input whose first byte has its high bit set runs the same-instant
// mode (fuzzSameInstant), which applies operations from inside engine
// events so that many changes coalesce into one refill; any other input
// runs the stepwise mode (fuzzStepwise). Run with
// `go test -fuzz=FuzzFabricEquivalence` for continuous fuzzing; seeds run
// under plain `go test`.
func FuzzFabricEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 2, 3, 0, 2, 0, 1, 3, 2, 1, 0, 4, 8, 1, 9, 2, 1, 1, 2})
	f.Add([]byte{3, 1, 2, 1, 1, 0, 1, 2, 1, 3, 1, 2, 1, 0, 2, 4, 6, 0, 3, 1, 8, 2, 2, 1, 2, 5, 7, 3, 0, 4, 8, 3})
	f.Add([]byte{4, 2, 0, 3, 2, 1, 2, 2, 3, 3, 2, 0, 1, 2, 1, 0, 3, 4, 0, 2, 6, 1, 5, 8, 4, 1, 0, 3, 3, 0, 7, 8, 2})
	f.Add([]byte{5, 1, 1, 0, 6, 1, 2, 1, 1, 0, 3, 3, 1, 1, 3, 0, 1, 2, 2, 2, 1, 1, 2, 3, 0, 1, 8, 4, 9, 9, 9, 9})
	f.Add([]byte{
		1, 0, 1, 2, 3, 4, 2, 1, 0, 5, 1, 0, 1, 2, 0, 0, 2, 1, 3, 3, 2, 3, 2, 1, 1, 0, 4, 6, 1, 0, 8, 3,
		0, 1, 1, 1, 0, 2, 3, 2, 5, 4, 1, 3, 0, 3, 4, 1, 7, 8, 1, 2, 2, 2, 0, 1, 3, 1, 0, 2, 8, 2, 9, 9,
	})
	// Same-instant mode.
	f.Add([]byte{0x80, 2, 3, 3, 2, 0, 1, 15, 1, 4, 1, 0, 1, 2, 3, 2, 0, 1, 1, 2, 3, 0, 0, 1, 2, 0, 0, 2, 1, 1, 2, 3, 0, 4, 0, 0, 3})
	f.Add([]byte{0x81, 1, 1, 1, 1, 0, 2, 9, 0, 6, 1, 1, 0, 2, 1, 1, 3, 1, 2, 1, 2, 4, 2, 0, 0, 2, 7, 1, 0, 1, 5, 1, 1, 3, 2, 8, 0, 2})
	f.Add([]byte{0x82, 3, 0, 2, 4, 1, 0, 6, 2, 5, 2, 3, 0, 1, 2, 1, 2, 0, 3, 0, 2, 1, 0, 1, 7, 0, 1, 0, 1, 1, 1, 0, 0, 2, 2, 1, 6, 1, 2, 2, 1, 0, 4, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 && data[0]&0x80 != 0 {
			fuzzSameInstant(t, data[1:])
			return
		}
		fuzzStepwise(t, data)
	})
}

// fabricOps is the operation surface the fuzz modes drive; Fabric and
// refFabric both implement it.
type fabricOps interface {
	LocalReadTier(n int, bytes float64, tier Tier, done func()) *Flow
	RemoteReadCapTier(src, dst int, bytes, capBps float64, tier Tier, done func()) *Flow
	Transfer(src, dst int, bytes float64, done func()) *Flow
	Cancel(fl *Flow)
	ScaleLinks(node int, factor float64)
	ScaleDisk(node int, factor float64)
	SetPartition(groups []int, chokeBps float64)
	ClearPartition()
}

// fuzzBytes hands out fuzz input one byte at a time, reduced modulo mod;
// an exhausted input reads as zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next(mod int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % mod
}

var (
	fuzzCaps  = []float64{10, 25, 40, 100, 333}
	fuzzSizes = []float64{0, 1, 50, 100, 333, 1e4}
)

// fuzzFabrics decodes a node count and per-node capacities and builds a
// Fabric and a refFabric over them on separate engines.
func fuzzFabrics(in *fuzzBytes) (n int, engA, engB *event.Engine, fb *Fabric, ref *refFabric) {
	n = in.next(4) + 2
	cfg := Config{
		UplinkBps:   fuzzCaps[in.next(len(fuzzCaps))],
		DownlinkBps: fuzzCaps[in.next(len(fuzzCaps))],
		DiskBps:     fuzzCaps[in.next(len(fuzzCaps))],
		MemoryBps:   []float64{0, 60, 1e3}[in.next(3)],
		LatencySec:  []float64{0, 0.25, 1}[in.next(3)],
	}
	engA, engB = event.NewEngine(), event.NewEngine()
	return n, engA, engB, NewFabric(engA, n, cfg), newRefFabric(engB, n, cfg)
}

// sameFlows fails unless fb and ref hold the same active flows with
// bit-identical rates and remaining bytes, and fb's rates pass
// CheckMaxMin.
func sameFlows(t *testing.T, where string, fb *Fabric, ref *refFabric) {
	t.Helper()
	a, b := fb.Flows(), ref.sortedFlows()
	if len(a) != len(b) {
		t.Fatalf("%s: %d active flows, reference has %d", where, len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID ||
			math.Float64bits(a[i].Rate()) != math.Float64bits(b[i].Rate()) ||
			math.Float64bits(a[i].Remaining()) != math.Float64bits(b[i].Remaining()) {
			t.Fatalf("%s: flow %d rate %v remaining %v; reference flow %d rate %v remaining %v",
				where, a[i].ID, a[i].Rate(), a[i].Remaining(), b[i].ID, b[i].Rate(), b[i].Remaining())
		}
	}
	if err := fb.CheckMaxMin(); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
}

// sameLog fails unless two event logs are equal.
func sameLog[T comparable](t *testing.T, where string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: log %v, reference %v", where, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: log %v, reference %v", where, got, want)
		}
	}
}

// fuzzStepwise applies one operation at a time from outside the engine,
// advancing both clocks together, and compares the fabrics after every
// step, so every step flushes.
func fuzzStepwise(t *testing.T, data []byte) {
	in := fuzzBytes(data)
	next := in.next
	n, engA, engB, fb, ref := fuzzFabrics(&in)
	var got, want []*Flow // every flow started, in start order
	var gotDone, wantDone []int64
	doneA := func(id int64) func() { return func() { gotDone = append(gotDone, id) } }
	doneB := func(id int64) func() { return func() { wantDone = append(wantDone, id) } }

	check := func(step int, op string) {
		t.Helper()
		where := fmt.Sprintf("step %d (%s)", step, op)
		if engA.Now() != engB.Now() {
			t.Fatalf("%s: clocks diverge: %v vs %v", where, engA.Now(), engB.Now())
		}
		sameFlows(t, where, fb, ref)
		sameLog(t, where+": completions", gotDone, wantDone)
	}

	for step := 0; step < 80 && len(in) > 0; step++ {
		var op string
		switch next(10) {
		case 0:
			op = "local read"
			node, size, tier := next(n), fuzzSizes[next(len(fuzzSizes))], Tier(next(2))
			id := int64(len(got) + 1)
			got = append(got, fb.LocalReadTier(node, size, tier, doneA(id)))
			want = append(want, ref.LocalReadTier(node, size, tier, doneB(id)))
		case 1, 2:
			op = "remote read"
			src, dst, size := next(n), next(n), fuzzSizes[next(len(fuzzSizes))]
			capBps, tier := []float64{0, 0, 30, 100}[next(4)], Tier(next(2))
			id := int64(len(got) + 1)
			got = append(got, fb.RemoteReadCapTier(src, dst, size, capBps, tier, doneA(id)))
			want = append(want, ref.RemoteReadCapTier(src, dst, size, capBps, tier, doneB(id)))
		case 3:
			op = "transfer"
			src, dst, size := next(n), next(n), fuzzSizes[next(len(fuzzSizes))]
			id := int64(len(got) + 1)
			got = append(got, fb.Transfer(src, dst, size, doneA(id)))
			want = append(want, ref.Transfer(src, dst, size, doneB(id)))
		case 4:
			op = "cancel"
			if len(got) > 0 {
				i := next(len(got))
				fb.Cancel(got[i])
				ref.Cancel(want[i])
			}
		case 5:
			op = "scale links"
			node, factor := next(n), []float64{0.1, 0.5, 1, 2}[next(4)]
			fb.ScaleLinks(node, factor)
			ref.ScaleLinks(node, factor)
		case 6:
			op = "scale disk"
			node, factor := next(n), []float64{0.2, 1, 3}[next(3)]
			fb.ScaleDisk(node, factor)
			ref.ScaleDisk(node, factor)
		case 7:
			op = "partition"
			groups := make([]int, n)
			for i := range groups {
				groups[i] = next(2)
			}
			chokeBps := []float64{1, 20, 1e3}[next(3)]
			fb.SetPartition(groups, chokeBps)
			ref.SetPartition(groups, chokeBps)
		case 8:
			op = "heal"
			fb.ClearPartition()
			ref.ClearPartition()
		case 9:
			op = "advance"
			to := engA.Now() + []float64{0.1, 0.5, 1, 3.7, 40}[next(5)]
			engA.RunUntil(to)
			engB.RunUntil(to)
		}
		check(step, op)
	}
	engA.Run()
	engB.Run()
	check(-1, "drain")
	for i := range got {
		if got[i].Done() != want[i].Done() {
			t.Fatalf("flow %d: done=%v, reference done=%v", got[i].ID, got[i].Done(), want[i].Done())
		}
	}
}

// fuzzSameInstant applies operations from inside engine events. The input
// decodes into bursts, each a list of operations that run at one instant.
// An operation is scheduled up front, or at delay zero by the burst's
// previous operation, either before or after that operation acts. So
// changes interleave with marker events, and with same-instant events
// scheduled before and after each change. Completion callbacks log the
// completion and may start a follow-on flow. The fabrics are compared only
// once both engines have run through a burst's instant: the interleaved
// log of markers and completions, and every rate bit for bit. Within an
// instant, changes coalesce into one refill.
func fuzzSameInstant(t *testing.T, data []byte) {
	in := fuzzBytes(data)
	n, engA, engB, fb, ref := fuzzFabrics(&in)
	follow := in.next(16)
	a := &instantSide{eng: engA, fab: fb, n: n, follow: follow}
	b := &instantSide{eng: engB, fab: ref, n: n, follow: follow}
	at, label := 0.0, 0
	for burst := 0; burst < 12 && len(in) > 0; burst++ {
		at += []float64{0, 0.25, 0.5, 1, 2.5}[in.next(5)]
		ops := decodeBurst(&in, n, label)
		label += len(ops)
		a.schedule(at, ops)
		b.schedule(at, ops)
		engA.RunUntil(at)
		engB.RunUntil(at)
		where := fmt.Sprintf("burst %d at %v", burst, at)
		if fb.dirty {
			t.Fatalf("%s: fabric still dirty after RunUntil", where)
		}
		sameLog(t, where, a.log, b.log)
		sameFlows(t, where, fb, ref)
	}
	engA.Run()
	engB.Run()
	sameLog(t, "drain", a.log, b.log)
	sameFlows(t, "drain", fb, ref)
	for i := range a.flows {
		if a.flows[i].Done() != b.flows[i].Done() {
			t.Fatalf("flow %d: done=%v, reference done=%v", a.flows[i].ID, a.flows[i].Done(), b.flows[i].Done())
		}
	}
}

// instantOp is one decoded same-instant operation.
type instantOp struct {
	kind   int // 0 marker, 1 local read, 2 remote read, 3 transfer, 4 cancel, 5 scale links, 6 scale disk, 7 partition, 8 heal
	place  int // 0 scheduled up front; 1 or 2 scheduled by the previous operation before or after it acts
	label  int // marker name
	node   int
	dst    int
	pick   int // cancel: index, modulo the flows started so far
	size   float64
	x      float64 // rate cap, scale factor or choke capacity
	tier   Tier
	groups []int
}

// decodeBurst decodes one burst of one to six operations; markers are
// labelled from label on.
func decodeBurst(in *fuzzBytes, n, label int) []instantOp {
	ops := make([]instantOp, in.next(6)+1)
	for i := range ops {
		op := &ops[i]
		op.kind, op.label = in.next(9), label+i
		if i > 0 {
			op.place = in.next(3)
		}
		switch op.kind {
		case 1:
			op.node, op.size, op.tier = in.next(n), fuzzSizes[in.next(len(fuzzSizes))], Tier(in.next(2))
		case 2:
			op.node, op.dst, op.size = in.next(n), in.next(n), fuzzSizes[in.next(len(fuzzSizes))]
			op.x, op.tier = []float64{0, 0, 30, 100}[in.next(4)], Tier(in.next(2))
		case 3:
			op.node, op.dst, op.size = in.next(n), in.next(n), fuzzSizes[in.next(len(fuzzSizes))]
		case 4:
			op.pick = in.next(64)
		case 5:
			op.node, op.x = in.next(n), []float64{0.1, 0.5, 1, 2}[in.next(4)]
		case 6:
			op.node, op.x = in.next(n), []float64{0.2, 1, 3}[in.next(3)]
		case 7:
			op.groups = make([]int, n)
			for j := range op.groups {
				op.groups[j] = in.next(2)
			}
			op.x = []float64{1, 20, 1e3}[in.next(3)]
		}
	}
	return ops
}

// instantSide is one fabric under fuzzSameInstant with its engine, every
// flow it started (in start order) and its log.
type instantSide struct {
	eng    *event.Engine
	fab    fabricOps
	n      int
	follow int // bit i set: a completed flow whose ID%4 == i starts a follow-on flow
	flows  []*Flow
	log    []string
}

// schedule schedules a burst's operations at time at.
func (s *instantSide) schedule(at float64, ops []instantOp) {
	var fire func(i int) func()
	fire = func(i int) func() {
		return func() {
			child := i+1 < len(ops) && ops[i+1].place != 0
			if child && ops[i+1].place == 1 {
				s.eng.Schedule(0, fire(i+1))
			}
			s.apply(ops[i])
			if child && ops[i+1].place == 2 {
				s.eng.Schedule(0, fire(i+1))
			}
		}
	}
	for i, op := range ops {
		if op.place == 0 {
			s.eng.At(at, fire(i))
		}
	}
}

func (s *instantSide) apply(op instantOp) {
	switch op.kind {
	case 0:
		s.log = append(s.log, fmt.Sprintf("m%d@%v", op.label, s.eng.Now()))
	case 1:
		s.start(func(done func()) *Flow { return s.fab.LocalReadTier(op.node, op.size, op.tier, done) })
	case 2:
		s.start(func(done func()) *Flow {
			return s.fab.RemoteReadCapTier(op.node, op.dst, op.size, op.x, op.tier, done)
		})
	case 3:
		s.start(func(done func()) *Flow { return s.fab.Transfer(op.node, op.dst, op.size, done) })
	case 4:
		if len(s.flows) > 0 {
			s.fab.Cancel(s.flows[op.pick%len(s.flows)])
		}
	case 5:
		s.fab.ScaleLinks(op.node, op.x)
	case 6:
		s.fab.ScaleDisk(op.node, op.x)
	case 7:
		s.fab.SetPartition(op.groups, op.x)
	case 8:
		s.fab.ClearPartition()
	}
}

// start starts a flow through begin with a done callback that logs the
// completion and, when follow selects the flow, starts a follow-on
// transfer at the same instant.
func (s *instantSide) start(begin func(done func()) *Flow) {
	id := len(s.flows) + 1
	s.flows = append(s.flows, nil)
	s.flows[id-1] = begin(func() {
		s.log = append(s.log, fmt.Sprintf("c%d@%v", id, s.eng.Now()))
		if s.follow>>(id%4)&1 == 1 && len(s.flows) < 100 {
			src, dst, size := id%s.n, (id+1+id/4)%s.n, fuzzSizes[id%len(fuzzSizes)]
			s.start(func(done func()) *Flow { return s.fab.Transfer(src, dst, size, done) })
		}
	})
}

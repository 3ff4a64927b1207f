package hdfs

// PlacementPolicy chooses the DataNodes that receive a new block's replicas.
type PlacementPolicy interface {
	// Place returns the nodes for a block's replicas. Implementations must
	// return distinct, live nodes and may return fewer than replicas when
	// the cluster is too small or too full.
	Place(nn *NameNode, b *Block, replicas int) ([]int, error)
	// Name identifies the policy in reports.
	Name() string
}

// RandomPolicy places each replica on a distinct node chosen uniformly at
// random — the paper's baseline configuration ("each data block typically
// has three replicas randomly distributed in the cluster", §II).
type RandomPolicy struct{}

// Name implements PlacementPolicy.
func (RandomPolicy) Name() string { return "random" }

// Place implements PlacementPolicy.
func (RandomPolicy) Place(nn *NameNode, b *Block, replicas int) ([]int, error) {
	exclude := map[int]bool{}
	var out []int
	for len(out) < replicas {
		node, err := nn.pickNode(b.Size, exclude)
		if err != nil {
			if len(out) > 0 {
				return out, nil // partially placed: under-replicated but usable
			}
			return nil, err
		}
		out = append(out, node)
		exclude[node] = true
	}
	return out, nil
}

// RackAwarePolicy mimics HDFS's default: the first replica on a random node,
// the second on a different rack, the third on the same rack as the second
// but a different node. Extra replicas are placed randomly.
type RackAwarePolicy struct{}

// Name implements PlacementPolicy.
func (RackAwarePolicy) Name() string { return "rack-aware" }

// Place implements PlacementPolicy.
func (RackAwarePolicy) Place(nn *NameNode, b *Block, replicas int) ([]int, error) {
	exclude := map[int]bool{}
	var out []int
	add := func(node int) {
		out = append(out, node)
		exclude[node] = true
	}
	first, err := nn.pickNode(b.Size, exclude)
	if err != nil {
		return nil, err
	}
	add(first)
	if replicas == 1 {
		return out, nil
	}

	// Second replica: prefer a node on a different rack.
	second, ok := nn.pickNodeOnRack(b.Size, exclude, func(rack int) bool { return rack != nn.Rack(first) })
	if !ok {
		second, err = nn.pickNode(b.Size, exclude)
		if err != nil {
			return out, nil
		}
	}
	add(second)

	// Third replica: prefer the second replica's rack.
	if replicas >= 3 {
		third, ok := nn.pickNodeOnRack(b.Size, exclude, func(rack int) bool { return rack == nn.Rack(second) })
		if !ok {
			third, err = nn.pickNode(b.Size, exclude)
			if err != nil {
				return out, nil
			}
		}
		add(third)
	}

	for len(out) < replicas {
		node, err := nn.pickNode(b.Size, exclude)
		if err != nil {
			break
		}
		add(node)
	}
	return out, nil
}

// pickNodeOnRack picks a random live node whose rack satisfies the predicate.
func (nn *NameNode) pickNodeOnRack(size int64, exclude map[int]bool, rackOK func(int) bool) (int, bool) {
	var candidates []int
	for _, d := range nn.datanodes {
		if !d.alive || d.suspended || exclude[d.Node] || !rackOK(nn.Rack(d.Node)) {
			continue
		}
		if d.Capacity > 0 && d.Used+size > d.Capacity {
			continue
		}
		candidates = append(candidates, d.Node)
	}
	if len(candidates) == 0 {
		return 0, false
	}
	return candidates[nn.rng.Intn(len(candidates))], true
}

// PopularityPolicy implements a Scarlett-style strategy (§VII, [9]): blocks
// of files expected to be popular receive extra replicas, proportionally to
// their popularity weight, so hot data does not concentrate computation on
// three nodes.
type PopularityPolicy struct {
	// Weights maps file name → relative popularity (>= 1). Missing files
	// default to weight 1 (base replication).
	Weights map[string]float64
	// MaxExtra caps the additional replicas per block.
	MaxExtra int
}

// Name implements PlacementPolicy.
func (p *PopularityPolicy) Name() string { return "popularity" }

// Place implements PlacementPolicy.
func (p *PopularityPolicy) Place(nn *NameNode, b *Block, replicas int) ([]int, error) {
	w := 1.0
	if p.Weights != nil {
		if v, ok := p.Weights[b.File]; ok && v > 1 {
			w = v
		}
	}
	// Round half-up so fractional weights earn their extra replicas: the
	// contract is "proportionally to popularity weight", and truncation
	// would give weight 1.9 the same zero extras as weight 1.0.
	extra := int(w+0.5) - 1
	if p.MaxExtra > 0 && extra > p.MaxExtra {
		extra = p.MaxExtra
	}
	return RandomPolicy{}.Place(nn, b, replicas+extra)
}

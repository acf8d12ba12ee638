package obfuscate

import (
	"fmt"
	"math"
	"sort"

	"opaque/internal/roadnet"
)

// EndpointSelector picks fake endpoint nodes to mix with a true endpoint. The
// selection requires knowledge of the underlying road network; the obfuscator
// keeps a simple map for exactly this purpose (Section IV of the paper).
//
// Implementations must not return the true node or nodes already in exclude,
// and should return fewer than count nodes only when the network genuinely
// cannot supply enough distinct candidates.
type EndpointSelector interface {
	// SelectFakes returns up to count fake endpoints for the given true
	// endpoint.
	SelectFakes(g *roadnet.Graph, truth roadnet.NodeID, count int, exclude map[roadnet.NodeID]struct{}) []roadnet.NodeID
	// Name identifies the strategy in reports.
	Name() string
}

// rngLike is the minimal deterministic random source the selectors need.
// A tiny local SplitMix64 keeps the package free of a dependency on
// internal/gen while remaining reproducible.
type rngLike struct{ state uint64 }

func newSelectorRNG(seed uint64) *rngLike {
	if seed == 0 {
		seed = 0x853c49e6748fea9b
	}
	return &rngLike{state: seed}
}

func (r *rngLike) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rngLike) intn(n int) int {
	if n <= 0 {
		panic("obfuscate: intn with non-positive n")
	}
	return int(r.next() % uint64(n))
}

func (r *rngLike) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// UniformSelector picks fake endpoints uniformly at random from the whole
// network. Maximum endpoint diversity, but fake endpoints may be very far
// from the true one, which inflates the Lemma 1 radius max_t ||s,t|| and thus
// the processing cost (experiment E8 quantifies this).
type UniformSelector struct {
	rng *rngLike
}

// NewUniformSelector builds a uniform selector with the given seed.
func NewUniformSelector(seed uint64) *UniformSelector {
	return &UniformSelector{rng: newSelectorRNG(seed)}
}

// Name implements EndpointSelector.
func (u *UniformSelector) Name() string { return "uniform" }

// SelectFakes implements EndpointSelector.
func (u *UniformSelector) SelectFakes(g *roadnet.Graph, truth roadnet.NodeID, count int, exclude map[roadnet.NodeID]struct{}) []roadnet.NodeID {
	n := g.NumNodes()
	out := make([]roadnet.NodeID, 0, count)
	seen := make(map[roadnet.NodeID]struct{}, count+len(exclude)+1)
	seen[truth] = struct{}{}
	for id := range exclude {
		seen[id] = struct{}{}
	}
	// Rejection sampling with a cap proportional to the need; on tiny graphs
	// fall back to a scan.
	maxAttempts := 50 * (count + 1)
	for attempts := 0; len(out) < count && attempts < maxAttempts; attempts++ {
		id := roadnet.NodeID(u.rng.intn(n))
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	if len(out) < count {
		for id := 0; id < n && len(out) < count; id++ {
			nid := roadnet.NodeID(id)
			if _, dup := seen[nid]; dup {
				continue
			}
			seen[nid] = struct{}{}
			out = append(out, nid)
		}
	}
	return out
}

// RingBandSelector picks fake endpoints from an annulus around the true
// endpoint: at least MinRadius away (so fakes are not trivially equivalent to
// the truth) and at most MaxRadius away (so the obfuscated query's search
// radius — and hence the Lemma 1 cost — stays bounded). This is the
// cost-aware strategy OPAQUE's design motivates.
//
// Fakes are sampled uniformly without replacement from the eligible band
// nodes (every band node except the truth and the excluded ones). The band
// is collected unsorted into a buffer the selector reuses across calls, so
// a RingBandSelector, like its seeded random source, belongs to one
// goroutine at a time; the obfuscator service serialises its use.
type RingBandSelector struct {
	// MinRadius and MaxRadius bound the Euclidean distance between the true
	// endpoint and its fakes, in the network's coordinate units.
	MinRadius float64
	MaxRadius float64
	rng       *rngLike
	band      []roadnet.NodeID // candidate buffer reused across calls
}

// NewRingBandSelector builds a ring-band selector. MaxRadius must exceed
// MinRadius ≥ 0.
func NewRingBandSelector(minRadius, maxRadius float64, seed uint64) (*RingBandSelector, error) {
	if minRadius < 0 || maxRadius <= minRadius {
		return nil, fmt.Errorf("obfuscate: ring band needs 0 <= min < max, got [%v, %v]", minRadius, maxRadius)
	}
	return &RingBandSelector{MinRadius: minRadius, MaxRadius: maxRadius, rng: newSelectorRNG(seed)}, nil
}

// MustNewRingBandSelector is NewRingBandSelector but panics on error.
func MustNewRingBandSelector(minRadius, maxRadius float64, seed uint64) *RingBandSelector {
	s, err := NewRingBandSelector(minRadius, maxRadius, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements EndpointSelector.
func (s *RingBandSelector) Name() string { return "ringband" }

// SelectFakes implements EndpointSelector.
func (s *RingBandSelector) SelectFakes(g *roadnet.Graph, truth roadnet.NodeID, count int, exclude map[roadnet.NodeID]struct{}) []roadnet.NodeID {
	t := g.Node(truth)
	s.band = g.AppendNodesInBand(s.band[:0], t.X, t.Y, s.MinRadius, s.MaxRadius)
	// Widen the band progressively if the annulus is too sparse.
	widen := s.MaxRadius
	for len(s.band) < count+len(exclude)+1 && widen < 64*s.MaxRadius {
		widen *= 2
		s.band = g.AppendNodesInBand(s.band[:0], t.X, t.Y, s.MinRadius, widen)
	}
	return drawExcluding(s.band, truth, count, exclude, s.rng)
}

// DensityAwareSelector picks fake endpoints with probability proportional to
// their association weight (node popularity) within a radius around the true
// endpoint. Popular nodes are plausible destinations — an adversary who
// discounts implausible endpoints gains less, at a modest cost increase
// relative to the plain ring band (experiment E8). Like RingBandSelector it
// reuses one candidate buffer and belongs to one goroutine at a time.
type DensityAwareSelector struct {
	Radius float64
	rng    *rngLike
	disc   []roadnet.NodeID // candidate buffer reused across calls
}

// NewDensityAwareSelector builds a density-aware selector restricted to the
// given radius around the true endpoint.
func NewDensityAwareSelector(radius float64, seed uint64) (*DensityAwareSelector, error) {
	if radius <= 0 {
		return nil, fmt.Errorf("obfuscate: density-aware selector needs positive radius, got %v", radius)
	}
	return &DensityAwareSelector{Radius: radius, rng: newSelectorRNG(seed)}, nil
}

// MustNewDensityAwareSelector is NewDensityAwareSelector but panics on error.
func MustNewDensityAwareSelector(radius float64, seed uint64) *DensityAwareSelector {
	s, err := NewDensityAwareSelector(radius, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements EndpointSelector.
func (s *DensityAwareSelector) Name() string { return "density" }

// SelectFakes implements EndpointSelector.
func (s *DensityAwareSelector) SelectFakes(g *roadnet.Graph, truth roadnet.NodeID, count int, exclude map[roadnet.NodeID]struct{}) []roadnet.NodeID {
	t := g.Node(truth)
	radius := s.Radius
	s.disc = g.AppendNodesInBand(s.disc[:0], t.X, t.Y, 0, radius)
	for len(s.disc) < count+len(exclude)+1 && radius < 64*s.Radius {
		radius *= 2
		s.disc = g.AppendNodesInBand(s.disc[:0], t.X, t.Y, 0, radius)
	}
	// Weighted sampling without replacement by exponential sort keys
	// (Efraimidis–Spirakis): key = u^(1/w); take the largest keys.
	type keyed struct {
		id  roadnet.NodeID
		key float64
	}
	var pool []keyed
	for _, id := range s.disc {
		if id == truth {
			continue
		}
		if _, skip := exclude[id]; skip {
			continue
		}
		w := g.Node(id).Weight
		if w <= 0 {
			w = 1e-6
		}
		u := s.rng.float64()
		if u == 0 {
			u = 1e-12
		}
		pool = append(pool, keyed{id: id, key: math.Pow(u, 1/w)})
	}
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].key != pool[j].key {
			return pool[i].key > pool[j].key
		}
		return pool[i].id < pool[j].id
	})
	if count > len(pool) {
		count = len(pool)
	}
	out := make([]roadnet.NodeID, count)
	for i := 0; i < count; i++ {
		out[i] = pool[i].id
	}
	return out
}

// drawExcluding draws up to count distinct node IDs uniformly at random from
// candidates, skipping the truth and excluded nodes, and returns them in a
// new slice. It runs a partial Fisher–Yates shuffle over candidates in place
// and tests eligibility only on the nodes it draws: the eligible nodes come
// out of a uniform shuffle in uniform random order, so the first count of
// them are a uniform sample without replacement, and the cost is
// proportional to the draws rather than to len(candidates). When fewer than
// count nodes are eligible it returns all of them.
func drawExcluding(candidates []roadnet.NodeID, truth roadnet.NodeID, count int, exclude map[roadnet.NodeID]struct{}, rng *rngLike) []roadnet.NodeID {
	out := make([]roadnet.NodeID, 0, min(count, len(candidates)))
	for i := 0; i < len(candidates) && len(out) < count; i++ {
		j := i + rng.intn(len(candidates)-i)
		candidates[i], candidates[j] = candidates[j], candidates[i]
		id := candidates[i]
		if id == truth {
			continue
		}
		if _, skip := exclude[id]; skip {
			continue
		}
		out = append(out, id)
	}
	return out
}

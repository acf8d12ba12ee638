package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"opaque/internal/gen"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// costTolerance is the relative slack allowed between two costs of one
// path computed by different engines (shortcut sums versus arc sums).
const costTolerance = 1e-7

func sameCost(a, b float64) bool {
	return math.Abs(a-b) <= costTolerance*math.Max(1, math.Abs(b))
}

// walkCost returns the cost of path under g's weights and whether it is a
// walk from s to t along arcs of g.
func walkCost(g *roadnet.Graph, path []roadnet.NodeID, s, t roadnet.NodeID) (float64, bool) {
	if len(path) == 0 || path[0] != s || path[len(path)-1] != t {
		return 0, false
	}
	var sum float64
	for i := 1; i < len(path); i++ {
		c, ok := g.ArcCost(path[i-1], path[i])
		if !ok {
			return 0, false
		}
		sum += c
	}
	return sum, true
}

// referenceDistances computes the exact shortest-path cost of every pair on
// g with search.ReferenceSSMD, one search per distinct source — or, when the
// pairs share fewer destinations than sources, one search per destination on
// the reversed map. The searches run on GOMAXPROCS goroutines.
func referenceDistances(g *roadnet.Graph, pairs map[gen.QueryPair]bool) (map[gen.QueryPair]float64, error) {
	bySource := make(map[roadnet.NodeID][]roadnet.NodeID)
	byDest := make(map[roadnet.NodeID][]roadnet.NodeID)
	for p := range pairs {
		bySource[p.Source] = append(bySource[p.Source], p.Dest)
		byDest[p.Dest] = append(byDest[p.Dest], p.Source)
	}
	groups, reversed := bySource, false
	acc := storage.Accessor(storage.NewMemoryGraph(g))
	if len(byDest) < len(bySource) {
		groups, reversed = byDest, true
		acc = storage.NewMemoryGraph(g.Reverse())
	}
	roots := make(chan roadnet.NodeID, len(groups))
	for r := range groups {
		roots <- r
	}
	close(roots)

	out := make(map[gen.QueryPair]float64, len(pairs))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for root := range roots {
				res, err := search.ReferenceSSMD(acc, root, groups[root])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference search from %d: %w", root, err)
				}
				for i, other := range res.Dests {
					p := gen.QueryPair{Source: root, Dest: other}
					if reversed {
						p = gen.QueryPair{Source: other, Dest: root}
					}
					cost := math.Inf(1)
					if !res.Paths[i].Empty() {
						cost = res.Paths[i].Cost
					}
					out[p] = cost
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

func servedPairs(samples []*sample) map[gen.QueryPair]bool {
	pairs := make(map[gen.QueryPair]bool)
	for _, s := range samples {
		if s.err == "" {
			pairs[s.trip] = true
		}
	}
	return pairs
}

// verifyExact marks every served sample whose path is not a walk from its
// source to its destination on g, whose cost is not that walk's cost, or
// whose cost is not the shortest-path distance on g.
func verifyExact(g *roadnet.Graph, samples []*sample) error {
	ref, err := referenceDistances(g, servedPairs(samples))
	if err != nil {
		return err
	}
	for _, s := range samples {
		if s.err != "" {
			continue
		}
		walk, ok := walkCost(g, s.path, s.trip.Source, s.trip.Dest)
		s.wrong = !ok || !sameCost(s.cost, walk) || !sameCost(s.cost, ref[s.trip])
	}
	return nil
}

// verifyUnderChurn checks samples answered while weight updates streamed in,
// when the exact metric a reply was computed under is not known: the path
// must be a walk from source to destination on the fixture map, and its cost
// must lie between the walk's fixture cost and its cost with every hot arc
// at the stream's maximum, and no lower than the fixture shortest-path
// distance (updates only raise costs).
func verifyUnderChurn(base *roadnet.Graph, hot []hotArc, samples []*sample) error {
	ref, err := referenceDistances(base, servedPairs(samples))
	if err != nil {
		return err
	}
	isHot := make(map[[2]roadnet.NodeID]bool, len(hot))
	for _, a := range hot {
		isHot[[2]roadnet.NodeID{a.from, a.to}] = true
	}
	for _, s := range samples {
		if s.err == "" {
			s.wrong = !churnCostValid(base, isHot, s, ref[s.trip])
		}
	}
	return nil
}

func churnCostValid(base *roadnet.Graph, isHot map[[2]roadnet.NodeID]bool, s *sample, ref float64) bool {
	lo, ok := walkCost(base, s.path, s.trip.Source, s.trip.Dest)
	if !ok {
		return false
	}
	hi := lo
	for i := 1; i < len(s.path); i++ {
		if isHot[[2]roadnet.NodeID{s.path[i-1], s.path[i]}] {
			c, _ := base.ArcCost(s.path[i-1], s.path[i])
			hi += (maxHotFactor - 1) * c
		}
	}
	tol := costTolerance * math.Max(1, hi)
	return s.cost >= lo-tol && s.cost <= hi+tol && s.cost >= ref-tol
}

package search

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// randomDirectedGraph builds a small graph of independently drawn directed
// arcs: u→v and v→u exist and are priced independently, so weights are
// asymmetric, many arcs are one-way and some pairs are unreachable. With
// unique set, the k-th arc costs 2^k (arcs are capped at 50): every simple
// path then has a distinct, exactly representable cost, so shortest paths
// are unique and any summation order gives the same bits.
func randomDirectedGraph(r *rand.Rand, n int, density float64, unique bool) *roadnet.Graph {
	type arc struct{ from, to roadnet.NodeID }
	var arcs []arc
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && r.Float64() < density {
				arcs = append(arcs, arc{roadnet.NodeID(u), roadnet.NodeID(v)})
			}
		}
	}
	r.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
	if unique && len(arcs) > 50 {
		arcs = arcs[:50]
	}
	g := roadnet.NewGraph(n, len(arcs))
	for i := 0; i < n; i++ {
		g.AddNode(r.Float64()*10, r.Float64()*10)
	}
	for k, a := range arcs {
		cost := 0.5 + 9.5*r.Float64()
		if unique {
			cost = math.Ldexp(1, k)
		}
		g.MustAddEdge(a.from, a.to, cost)
	}
	g.Freeze()
	return g
}

// pickNodes draws k distinct nodes.
func pickNodes(r *rand.Rand, n, k int) []roadnet.NodeID {
	out := make([]roadnet.NodeID, 0, k)
	for _, v := range r.Perm(n)[:k] {
		out = append(out, roadnet.NodeID(v))
	}
	return out
}

// checkAgainstReference asserts every cell of res against the reference
// Dijkstra: equal cost (within rounding; exactly on unique graphs), a walk
// from s to t over existing arcs whose cost re-sums to the reported cost,
// and an empty path with +Inf in Dists exactly when t is unreachable.
func checkAgainstReference(t *testing.T, acc storage.Accessor, res MSMDResult, exact bool) {
	t.Helper()
	g := acc.Graph()
	for i, s := range res.Sources {
		for j, d := range res.Dests {
			want, _, err := ReferenceDijkstra(acc, s, d)
			if err != nil {
				t.Fatal(err)
			}
			got, dist := res.Paths[i][j], res.Dists[i][j]
			if want.Empty() {
				if !got.Empty() || !math.IsInf(dist, 1) {
					t.Fatalf("unreachable pair (%d,%d): got path %v, dist %v; want empty and +Inf", s, d, got.Nodes, dist)
				}
				continue
			}
			if got.Source() != s || got.Dest() != d {
				t.Fatalf("pair (%d,%d): path runs %d→%d", s, d, got.Source(), got.Dest())
			}
			walk := 0.0
			for k := 1; k < len(got.Nodes); k++ {
				c, ok := g.ArcCost(got.Nodes[k-1], got.Nodes[k])
				if !ok {
					t.Fatalf("pair (%d,%d): path %v uses missing arc %d→%d", s, d, got.Nodes, got.Nodes[k-1], got.Nodes[k])
				}
				walk += c
			}
			tol := 1e-9 * (1 + want.Cost)
			if exact {
				tol = 0
			}
			if math.Abs(got.Cost-want.Cost) > tol || math.Abs(walk-got.Cost) > tol || dist != got.Cost {
				t.Fatalf("pair (%d,%d): cost %v (walk %v, dist %v), reference %v", s, d, got.Cost, walk, dist, want.Cost)
			}
		}
	}
}

// TestCachedDirectionsMatchReference is the direction property test: on
// random small directed graphs with asymmetric weights and one-way arcs, a
// cached processor — whichever direction it picks — matches the reference
// Dijkstra on every cost, returns valid walks, and reports unreachable pairs
// as empty paths with +Inf distances. Its table is reflect.DeepEqual to
// uncached forward SSMD: shortest paths are unique by construction on the
// power-of-two graphs and almost surely on the ones with continuous random
// weights, where the reverse rows' re-summed costs must match forward labels
// bit for bit. The query stream repeats destinations and then sources, so
// both directions are exercised.
func TestCachedDirectionsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(20090329))
	var total TreeCacheStats
	unreachable := 0
	for trial := 0; trial < 60; trial++ {
		unique := trial%2 == 0
		n := 6 + r.Intn(7)
		g := randomDirectedGraph(r, n, 0.15+0.25*r.Float64(), unique)
		acc := storage.NewMemoryGraph(g)
		cache := NewTreeCache(6)
		cached := NewProcessor(acc, WithTreeCache(cache))
		cold := NewProcessor(acc)

		hotDests, hotSources := pickNodes(r, n, 2), pickNodes(r, n, 2)
		for q := 0; q < 12; q++ {
			sources, dests := pickNodes(r, n, 1+r.Intn(3)), hotDests
			if q >= 6 {
				sources, dests = hotSources, pickNodes(r, n, 1+r.Intn(3))
			}
			got, err := cached.Evaluate(sources, dests)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, acc, got, unique)
			for _, row := range got.Dists {
				for _, d := range row {
					if math.IsInf(d, 1) {
						unreachable++
					}
				}
			}
			want, err := cold.Evaluate(sources, dests)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Paths, want.Paths) || !reflect.DeepEqual(got.Dists, want.Dists) {
				t.Fatalf("trial %d query %d: cached table differs from uncached forward SSMD", trial, q)
			}
		}
		st := cache.Stats()
		total.ForwardHits += st.ForwardHits
		total.ForwardMisses += st.ForwardMisses
		total.ReverseHits += st.ReverseHits
		total.ReverseMisses += st.ReverseMisses
		total.ReverseQueries += st.ReverseQueries
	}
	t.Logf("directions over all trials: %+v; %d unreachable cells", total, unreachable)
	if total.ReverseQueries == 0 || total.ReverseHits == 0 || total.ForwardHits == 0 {
		t.Errorf("query streams did not exercise both directions: %+v", total)
	}
	if unreachable == 0 {
		t.Error("no unreachable pair was generated; the graphs are too dense")
	}
}

// TestReverseRowBothDirectionsAgree evaluates every (root, row) of random
// directed graphs on a forward and a reverse tree directly, bypassing the
// direction rule: the two must agree cell by cell (bit for bit on unique
// graphs), including unreachable pairs.
func TestReverseRowBothDirectionsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(6)
		g := randomDirectedGraph(r, n, 0.3, true)
		acc := storage.NewMemoryGraph(g)
		rev, ok := storage.Reverse(acc)
		if !ok {
			t.Fatal("no reverse view of a MemoryGraph")
		}
		cache := NewTreeCache(2 * n)
		all := pickNodes(r, n, n)
		for _, s := range all {
			fwdRow, _, err := cache.evaluate(acc, s, Forward, all)
			if err != nil {
				t.Fatal(err)
			}
			for j, d := range all {
				revRow, _, err := cache.evaluate(rev, d, Reverse, []roadnet.NodeID{s})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fwdRow[j], revRow[0]) {
					t.Fatalf("pair (%d,%d): forward tree %v, reverse tree %v", s, d, fwdRow[j], revRow[0])
				}
			}
		}
	}
}

// TestRepeatedDestinationsSettleReverse checks the direction rule on the
// traffic it exists for: fresh sources asking for the same destinations.
// The first two queries have no recurring side and go forward; from the
// third on the destinations recur and every query is answered from reverse
// trees, all hits after the trees are built. Every table is DeepEqual to
// uncached forward SSMD on this road network.
func TestRepeatedDestinationsSettleReverse(t *testing.T) {
	g := mediumGraph(t)
	acc := storage.NewMemoryGraph(g)
	cache := NewTreeCache(64)
	p := NewProcessor(acc, WithTreeCache(cache))
	cold := NewProcessor(acc)
	dests := []roadnet.NodeID{120, 340, 560}
	const queries = 20
	for q := 0; q < queries; q++ {
		sources := []roadnet.NodeID{roadnet.NodeID(3 * q), roadnet.NodeID(3*q + 1), roadnet.NodeID(3*q + 2)}
		before := cache.Stats().ReverseQueries
		got, err := p.Evaluate(sources, dests)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.Evaluate(sources, dests)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Paths, want.Paths) {
			t.Errorf("query %d: cached table differs from uncached forward SSMD", q)
		}
		wantReverse := q >= 2
		if got := cache.Stats().ReverseQueries > before; got != wantReverse {
			t.Errorf("query %d: reverse = %v, want %v", q, got, wantReverse)
		}
	}
	st := cache.Stats()
	if st.ReverseMisses != int64(len(dests)) || st.ReverseHits != int64(len(dests)*(queries-3)) {
		t.Errorf("stats %+v: want %d reverse misses and %d reverse hits", st, len(dests), len(dests)*(queries-3))
	}
	if st.ForwardHits != 0 || st.ForwardMisses != 6 {
		t.Errorf("stats %+v: want the two forward queries' 6 misses and no forward hit", st)
	}
}

// TestTreeCacheConcurrentForwardReverse runs forward and reverse lookups on
// the same nodes at once (run under -race): the (root, direction) keys must
// never collide, and every answer must match the reference.
func TestTreeCacheConcurrentForwardReverse(t *testing.T) {
	g := testGraph(t, 300, 61)
	acc := storage.NewMemoryGraph(g)
	rev, _ := storage.Reverse(acc)
	cache := NewTreeCache(8)
	roots := []roadnet.NodeID{4, 5, 6}
	others := []roadnet.NodeID{40, 140, 240}
	want := func(s, d roadnet.NodeID) float64 {
		p, _, err := ReferenceDijkstra(acc, s, d)
		if err != nil {
			t.Fatal(err)
		}
		return p.Cost
	}
	fwdWant := make(map[[2]roadnet.NodeID]float64)
	for _, v := range roots {
		for _, o := range others {
			fwdWant[[2]roadnet.NodeID{v, o}] = want(v, o)
			fwdWant[[2]roadnet.NodeID{o, v}] = want(o, v)
		}
	}

	var wg sync.WaitGroup
	for wk := 0; wk < 8; wk++ {
		dir := Direction(wk % 2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				for _, v := range roots {
					rowAcc := storage.Accessor(acc)
					if dir == Reverse {
						rowAcc = rev
					}
					paths, _, err := cache.evaluate(rowAcc, v, dir, others)
					if err != nil {
						t.Error(err)
						return
					}
					for j, o := range others {
						pair := [2]roadnet.NodeID{v, o}
						if dir == Reverse {
							pair = [2]roadnet.NodeID{o, v}
						}
						if w := fwdWant[pair]; math.Abs(paths[j].Cost-w) > 1e-9*(1+w) {
							t.Errorf("direction %d tree at %d: pair %v cost %v, reference %v", dir, v, pair, paths[j].Cost, w)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := cache.Len(); n != 2*len(roots) {
		t.Errorf("cache holds %d trees, want one per (root, direction) = %d", n, 2*len(roots))
	}
}

// TestReverseReconstructionAllocs checks that answering from a fully grown
// reverse tree allocates only the returned slices: the row and one node
// slice per non-trivial path — no reversal buffer, nothing for the cost
// re-sum.
func TestReverseReconstructionAllocs(t *testing.T) {
	g := mediumGraph(t)
	acc := storage.NewMemoryGraph(g)
	rev, _ := storage.Reverse(acc)
	tree, err := newTreeFromPool(sharedWorkspaces, rev, 9, Reverse)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Release()
	sources := []roadnet.NodeID{100, 200, 300, 400}
	if _, _, err := tree.paths(sources); err != nil { // grow first
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := tree.paths(sources); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(1 + len(sources)); allocs != want {
		t.Errorf("reverse row reconstruction made %v allocations, want %v", allocs, want)
	}
}

package ch

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// randomSymmetricGraph builds a random connected graph whose every road
// segment runs both ways (a bidirectional random chain plus bidirectional
// extras) with small integer costs, so its customizable overlays are
// symmetric and chordal. With oneWay set, one more node hangs off node 0 by
// a single one-way arc into it: no shortcut can ever leave that node, so
// the overlay's upward structure cannot be symmetric.
func randomSymmetricGraph(t testing.TB, n, extra int, oneWay bool, seed int64) *roadnet.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := roadnet.NewGraph(n+1, 2*n+2*extra+1)
	for i := 0; i < n; i++ {
		g.AddNode(rng.Float64()*1000, rng.Float64()*1000)
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.MustAddBidirectionalEdge(roadnet.NodeID(perm[i-1]), roadnet.NodeID(perm[i]), float64(1+rng.Intn(20)))
	}
	for i := 0; i < extra; i++ {
		a, b := roadnet.NodeID(rng.Intn(n)), roadnet.NodeID(rng.Intn(n))
		if a != b {
			g.MustAddBidirectionalEdge(a, b, float64(1+rng.Intn(20)))
		}
	}
	if oneWay {
		g.MustAddEdge(0, g.AddNode(rng.Float64()*1000, rng.Float64()*1000), 5)
	}
	g.Freeze()
	return g
}

// heapOnly returns a copy of o without its elimination tree: the same
// overlay, answered by the heap-driven sweeps.
func heapOnly(o *Overlay) *Overlay {
	c := *o
	c.etree = nil
	return &c
}

// upwardReach counts the nodes reachable from v over one upward CSR view,
// by a plain depth-first search, together with the arcs leaving them.
func upwardReach(off []int32, heads []roadnet.NodeID, v roadnet.NodeID) (nodes, arcs int) {
	seen := map[roadnet.NodeID]bool{v: true}
	stack := []roadnet.NodeID{v}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++
		arcs += int(off[u+1] - off[u])
		for _, h := range heads[off[u]:off[u+1]] {
			if !seen[h] {
				seen[h] = true
				stack = append(stack, h)
			}
		}
	}
	return nodes, arcs
}

// checkTreePath asserts o carries an elimination tree and that its tree
// queries — Engine.Path/Distance and MTM.Table/DistancesInto — match
// reference Dijkstra on g (paths checked arc by arc) and the heap sweeps on
// the same overlay, with no priority-queue operation.
func checkTreePath(t *testing.T, g *roadnet.Graph, o *Overlay, queries int, seed int64) {
	t.Helper()
	if o.etree == nil {
		t.Fatal("overlay has no elimination tree; queries would take the heap sweeps")
	}
	acc := storage.NewMemoryGraph(g)
	eng, heapEng := NewEngine(o, nil), NewEngine(heapOnly(o), nil)
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	for q := 0; q < queries; q++ {
		s, d := roadnet.NodeID(rng.Intn(n)), roadnet.NodeID(rng.Intn(n))
		want, _, err := search.ReferenceDijkstra(acc, s, d)
		if err != nil {
			t.Fatal(err)
		}
		wantDist := want.Cost
		if len(want.Nodes) == 0 && s != d {
			wantDist = math.Inf(1)
		}
		dist, st, err := eng.Distance(s, d)
		if err != nil {
			t.Fatal(err)
		}
		if dist != wantDist {
			t.Fatalf("pair (%d,%d): tree Distance %v, reference %v", s, d, dist, wantDist)
		}
		if st.QueueOps != 0 {
			t.Fatalf("pair (%d,%d): tree query made %d queue operations", s, d, st.QueueOps)
		}
		if s != d {
			fn, _ := upwardReach(o.fwdOff, o.fwdTo, s)
			bn, _ := upwardReach(o.bwdOff, o.bwdTo, d)
			if st.SettledNodes > fn+bn {
				t.Fatalf("pair (%d,%d): tree query settled %d nodes, the upward search spaces hold %d", s, d, st.SettledNodes, fn+bn)
			}
		}
		p, _, err := eng.Path(s, d)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(wantDist, 1) {
			if len(p.Nodes) != 0 {
				t.Fatalf("pair (%d,%d): unreachable, tree Path returned %v", s, d, p.Nodes)
			}
		} else {
			checkPathValid(t, g, s, d, p)
			if p.Cost != wantDist {
				t.Fatalf("pair (%d,%d): tree Path cost %v, reference %v", s, d, p.Cost, wantDist)
			}
		}
		if hd, _, err := heapEng.Distance(s, d); err != nil || hd != dist {
			t.Fatalf("pair (%d,%d): heap Distance %v (%v), tree %v", s, d, hd, err, dist)
		}
	}

	m, heapM := NewMTM(o, nil), NewMTM(heapOnly(o), nil)
	for round := 0; round < 3; round++ {
		sources := randomEndpointSet(rng, n, 1+rng.Intn(8))
		targets := randomEndpointSet(rng, n, 1+rng.Intn(8))
		checkTableAgainstReference(t, g, m, sources, targets)
		got, st, err := m.Distances(sources, targets)
		if err != nil {
			t.Fatal(err)
		}
		want, hst, err := heapM.Distances(sources, targets)
		if err != nil {
			t.Fatal(err)
		}
		for c := range got {
			if got[c] != want[c] {
				t.Fatalf("cell %d: tree sweeps %v, heap sweeps %v", c, got[c], want[c])
			}
		}
		if st.QueueOps != 0 || st.SettledNodes != hst.SettledNodes || st.RelaxedArcs != hst.RelaxedArcs {
			t.Fatalf("tree sweeps stats %+v, heap sweeps %+v: want equal settled/relaxed and no queue operations", st, hst)
		}
	}
}

// TestEliminationTreeQueriesMatchReference runs the tree queries over every
// way a customizable overlay reaches a server: built unpartitioned and
// partitioned, re-customized in full and incrementally, round-tripped
// through OCH1, and as a ProfileSet layer.
func TestEliminationTreeQueriesMatchReference(t *testing.T) {
	for _, tc := range []struct {
		n, extra int
		seed     int64
	}{
		{n: 40, extra: 30, seed: 31},
		{n: 160, extra: 120, seed: 32},
		{n: 90, extra: 0, seed: 33}, // a path: unique routes, deep tree
	} {
		g := randomSymmetricGraph(t, tc.n, tc.extra, false, tc.seed)
		o, err := BuildCustomizable(g)
		if err != nil {
			t.Fatal(err)
		}
		checkTreePath(t, g, o, 60, tc.seed)

		rng := rand.New(rand.NewSource(tc.seed))
		g2, err := g.WithUpdatedWeights(randomWeightChanges(g, rng, 10))
		if err != nil {
			t.Fatal(err)
		}
		re, err := o.Recustomize(g2)
		if err != nil {
			t.Fatal(err)
		}
		checkTreePath(t, g2, re, 40, tc.seed+1)

		var buf bytes.Buffer
		if err := Write(re, &buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkTreePath(t, g2, loaded, 40, tc.seed+2)

		for name, p := range buildTestPartitions(t, g) {
			po, err := BuildCustomizablePartitioned(g, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkTreePath(t, g, po, 30, tc.seed+3)
			cur, curG := po, g
			for round := 0; round < 3; round++ {
				next, err := curG.WithUpdatedWeights(randomWeightChanges(curG, rng, 1+rng.Intn(6)))
				if err != nil {
					t.Fatal(err)
				}
				if cur, _, err = cur.RecustomizeIncremental(next); err != nil {
					t.Fatalf("%s round %d: %v", name, round, err)
				}
				curG = next
				checkTreePath(t, curG, cur, 20, tc.seed+int64(4+round))
			}
		}
	}

	g := randomSymmetricGraph(t, 120, 80, false, 34)
	base, err := BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewProfileSet(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := g.WithUpdatedWeights(randomWeightChanges(g, rand.New(rand.NewSource(34)), 40))
	if err != nil {
		t.Fatal(err)
	}
	layer, err := ps.Install("rush-hour", pg)
	if err != nil {
		t.Fatal(err)
	}
	checkTreePath(t, pg, layer, 40, 77)
}

// TestEliminationTreeRejected: overlays whose upward structure is not
// symmetric and chordal — a witness-pruned one, and a customizable one of a
// graph with a single one-way arc — fail the check and keep answering
// through the heap sweeps, still exactly.
func TestEliminationTreeRejected(t *testing.T) {
	g := gridIntCostGraph(t, 8, 8, 41)
	witness, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if witness.etree != nil {
		t.Fatal("witness-pruned grid overlay passed the chordality check")
	}
	checkAgainstReference(t, storage.NewMemoryGraph(g), witness, 60, 41)

	oneWay := randomSymmetricGraph(t, 80, 40, true, 42)
	if sym, err := BuildCustomizable(randomSymmetricGraph(t, 80, 40, false, 42)); err != nil || sym.etree == nil {
		t.Fatalf("the same graph without its one-way arc should pass the check (err %v)", err)
	}
	o, err := BuildCustomizable(oneWay)
	if err != nil {
		t.Fatal(err)
	}
	if o.etree != nil {
		t.Fatal("customizable overlay of a graph with a one-way arc passed the symmetry check")
	}
	checkAgainstReference(t, storage.NewMemoryGraph(oneWay), o, 60, 42)
	m := NewMTM(o, nil)
	if _, st, err := m.Distances([]roadnet.NodeID{0, 1}, []roadnet.NodeID{2, 3}); err != nil || st.QueueOps == 0 {
		t.Fatalf("rejected overlay's sweeps made %d queue operations (err %v); want the heap path", st.QueueOps, err)
	}
}

// TestTreeSweepSettlesUpwardReach: a tree sweep settles exactly the nodes an
// upward search can reach — counted here by a plain DFS over the CSR — and
// relaxes exactly their upward arcs.
func TestTreeSweepSettlesUpwardReach(t *testing.T) {
	g := randomSymmetricGraph(t, 200, 150, false, 51)
	o, err := BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	if o.etree == nil {
		t.Fatal("overlay has no elimination tree")
	}
	m := NewMTM(o, nil)
	rng := rand.New(rand.NewSource(51))
	for q := 0; q < 50; q++ {
		s, d := roadnet.NodeID(rng.Intn(200)), roadnet.NodeID(rng.Intn(200))
		_, st, err := m.Distances([]roadnet.NodeID{s}, []roadnet.NodeID{d})
		if err != nil {
			t.Fatal(err)
		}
		fn, fa := upwardReach(o.fwdOff, o.fwdTo, s)
		bn, ba := upwardReach(o.bwdOff, o.bwdTo, d)
		if st.SettledNodes != fn+bn || st.RelaxedArcs != fa+ba {
			t.Fatalf("pair (%d,%d): settled %d / relaxed %d, upward reach %d / %d", s, d, st.SettledNodes, st.RelaxedArcs, fn+bn, fa+ba)
		}
	}
}

// TestTreeQueriesAllocFree: distance-only tree queries allocate nothing in
// steady state.
func TestTreeQueriesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := randomSymmetricGraph(t, 300, 200, false, 61)
	o, err := BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	if o.etree == nil {
		t.Fatal("overlay has no elimination tree")
	}
	eng, m := NewEngine(o, nil), NewMTM(o, nil)
	sources := []roadnet.NodeID{1, 17, 99, 150}
	targets := []roadnet.NodeID{3, 42, 201, 299, 7}
	var dst []float64
	if dst, _, err = m.DistancesInto(dst, sources, targets); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() {
		if dst, _, err = m.DistancesInto(dst, sources, targets); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("tree DistancesInto: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() {
		if _, _, err := eng.Distance(5, 250); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("tree Engine.Distance: %v allocs/op, want 0", a)
	}
}

// TestTreeQueriesConcurrent shares one tree-walking Engine and MTM — and
// the package's label pool — between goroutines; every answer must match
// its precomputed reference, and the race detector checks the sharing.
func TestTreeQueriesConcurrent(t *testing.T) {
	g := randomSymmetricGraph(t, 200, 150, false, 71)
	o, err := BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	if o.etree == nil {
		t.Fatal("overlay has no elimination tree")
	}
	acc := storage.NewMemoryGraph(g)
	rng := rand.New(rand.NewSource(71))
	sources, targets := randomEndpointSet(rng, 200, 6), randomEndpointSet(rng, 200, 6)
	want := make([]float64, len(sources)*len(targets))
	for i, s := range sources {
		for j, d := range targets {
			p, _, err := search.ReferenceDijkstra(acc, s, d)
			if err != nil {
				t.Fatal(err)
			}
			want[i*len(targets)+j] = p.Cost
		}
	}
	eng, m := NewEngine(o, nil), NewMTM(o, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				got, _, err := m.Distances(sources, targets)
				if err != nil {
					t.Error(err)
					return
				}
				tbl, err := m.Table(sources, targets)
				if err != nil {
					t.Error(err)
					return
				}
				for c, wd := range want {
					i, j := c/len(targets), c%len(targets)
					d, _, err := eng.Distance(sources[i], targets[j])
					p, _, perr := eng.Path(sources[i], targets[j])
					if err != nil || perr != nil || got[c] != wd || tbl.Dist(i, j) != wd || d != wd || p.Cost != wd {
						t.Errorf("cell (%d,%d): table %v, path table %v, point %v, path %v (errors %v, %v); want %v",
							i, j, got[c], tbl.Dist(i, j), d, p.Cost, err, perr, wd)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

package roadnet

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// scatterGraph builds a frozen graph with nodes at pseudo-random positions in
// [0,100)² produced from a simple LCG so the test is deterministic.
func scatterGraph(n int) *Graph {
	g := NewGraph(n, 0)
	state := uint64(12345)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / (1 << 53) * 100
	}
	for i := 0; i < n; i++ {
		g.AddNode(next(), next())
	}
	g.Freeze()
	return g
}

func TestNearestNodeMatchesLinearScan(t *testing.T) {
	g := scatterGraph(500)
	probes := [][2]float64{{0, 0}, {50, 50}, {99, 1}, {-10, 110}, {33.3, 66.6}}
	for _, p := range probes {
		got := g.NearestNode(p[0], p[1])
		want := g.linearNearest(p[0], p[1])
		gd := math.Hypot(g.Node(got).X-p[0], g.Node(got).Y-p[1])
		wd := math.Hypot(g.Node(want).X-p[0], g.Node(want).Y-p[1])
		if math.Abs(gd-wd) > 1e-9 {
			t.Errorf("NearestNode(%v) distance %v, linear scan distance %v", p, gd, wd)
		}
	}
}

// Property: grid-based nearest node always matches the brute-force answer (in
// distance) for arbitrary probe points.
func TestNearestNodeProperty(t *testing.T) {
	g := scatterGraph(200)
	f := func(xRaw, yRaw uint16) bool {
		x := float64(xRaw) / 655.35 // 0..100
		y := float64(yRaw) / 655.35
		got := g.NearestNode(x, y)
		want := g.linearNearest(x, y)
		gd := math.Hypot(g.Node(got).X-x, g.Node(got).Y-y)
		wd := math.Hypot(g.Node(want).X-x, g.Node(want).Y-y)
		return math.Abs(gd-wd) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNearestNodeEmptyGraph(t *testing.T) {
	g := NewGraph(0, 0)
	g.Freeze()
	if got := g.NearestNode(1, 2); got != InvalidNode {
		t.Errorf("NearestNode on empty graph = %d, want InvalidNode", got)
	}
}

func TestNearestNodeUnfrozenGraphFallsBack(t *testing.T) {
	g := NewGraph(2, 0)
	g.AddNode(0, 0)
	b := g.AddNode(10, 10)
	if got := g.NearestNode(9, 9); got != b {
		t.Errorf("NearestNode on mutable graph = %d, want %d", got, b)
	}
}

func TestNodesWithin(t *testing.T) {
	g := NewGraph(0, 0)
	ids := []NodeID{
		g.AddNode(0, 0),
		g.AddNode(1, 0),
		g.AddNode(3, 0),
		g.AddNode(10, 0),
	}
	g.Freeze()
	got := g.NodesWithin(0, 0, 3.5)
	want := []NodeID{ids[0], ids[1], ids[2]}
	if len(got) != len(want) {
		t.Fatalf("NodesWithin = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("NodesWithin[%d] = %d, want %d (results must be sorted by distance)", i, got[i], want[i])
		}
	}
}

func TestNodesWithinMatchesBruteForce(t *testing.T) {
	g := scatterGraph(300)
	for _, radius := range []float64{5, 20, 60} {
		got := g.NodesWithin(50, 50, radius)
		count := 0
		for _, n := range g.Nodes() {
			if math.Hypot(n.X-50, n.Y-50) <= radius {
				count++
			}
		}
		if len(got) != count {
			t.Errorf("NodesWithin(radius=%v) returned %d nodes, brute force found %d", radius, len(got), count)
		}
		// Results must be sorted by distance.
		for i := 1; i < len(got); i++ {
			d0 := math.Hypot(g.Node(got[i-1]).X-50, g.Node(got[i-1]).Y-50)
			d1 := math.Hypot(g.Node(got[i]).X-50, g.Node(got[i]).Y-50)
			if d0 > d1+1e-9 {
				t.Errorf("NodesWithin results not sorted at index %d", i)
				break
			}
		}
	}
}

// bandGraph scatters n nodes over [0,100)² and adds nodes exactly on, just
// inside and just outside the circles of radius 10 and 30 around (50, 50);
// the on-circle nodes sit at Pythagorean offsets so their distance is exact.
func bandGraph(n int, frozen bool) *Graph {
	g := NewGraph(n+12, 0)
	state := uint64(12345)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / (1 << 53) * 100
	}
	for i := 0; i < n; i++ {
		g.AddNode(next(), next())
	}
	for _, p := range [][2]float64{
		{60, 50}, {56, 58}, {50, 40}, // radius 10
		{80, 50}, {68, 74}, {32, 26}, // radius 30
		{59.999, 50}, {50, 40.001}, // just inside the inner circle
		{80.001, 50}, {50, 19.999}, // just outside the outer circle
		{50, 50}, {50.5, 50}, // centre
	} {
		g.AddNode(p[0], p[1])
	}
	if frozen {
		g.Freeze()
	}
	return g
}

// TestNodesInBand checks AppendNodesInBand against a brute-force scan on
// frozen (grid) and mutable (linear scan) graphs: the same set, no
// duplicates, both radii inclusive, and dst's prefix kept.
func TestNodesInBand(t *testing.T) {
	for _, frozen := range []bool{true, false} {
		g := bandGraph(300, frozen)
		for _, band := range [][2]float64{{10, 30}, {0, 30}, {0, 10}, {30, 200}, {0, 0}, {40, 30}} {
			inner, outer := band[0], band[1]
			prefix := []NodeID{-7}
			got := g.AppendNodesInBand(prefix, 50, 50, inner, outer)
			if got[0] != -7 {
				t.Fatalf("frozen=%v band %v: dst prefix overwritten", frozen, band)
			}
			got = append([]NodeID(nil), got[1:]...)
			var want []NodeID
			for _, n := range g.Nodes() {
				if d := math.Hypot(n.X-50, n.Y-50); d >= inner && d <= outer {
					want = append(want, n.ID)
				}
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if len(got) != len(want) {
				t.Fatalf("frozen=%v band %v: %d nodes, brute force found %d", frozen, band, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("frozen=%v band %v: got %v, brute force %v", frozen, band, got, want)
				}
			}
		}
		// The on-circle nodes belong to both bands they bound.
		onCircle := map[NodeID]bool{}
		for _, id := range g.AppendNodesInBand(nil, 50, 50, 10, 30) {
			onCircle[id] = true
		}
		for id := NodeID(300); id < 306; id++ {
			if !onCircle[id] {
				n := g.Node(id)
				t.Errorf("frozen=%v: node at (%v, %v) on a band circle was left out", frozen, n.X, n.Y)
			}
		}
	}
}

// TestNodesInBandCellClassification pins the whole-cell shortcuts of
// AppendNodesInBand to the node-by-node answer: the same IDs in grid order
// (cell by cell, each cell in its stored order), with bands that swallow
// whole cells, skip whole cells and cut through cells, on a lattice whose
// nodes sit exactly on cell edges and on the band circles.
func TestNodesInBandCellClassification(t *testing.T) {
	// 100 lattice nodes with coordinates in multiples of 10 over [0, 100]²:
	// the grid is 10×10 with 10-unit cells, so every node lies on a cell
	// edge and every cell's node box is degenerate.
	lattice := NewGraph(100, 0)
	lattice.AddNode(0, 0)
	lattice.AddNode(100, 100)
	for i := 0; len(lattice.nodes) < 100; i++ {
		if x, y := float64(10*(i%11)), float64(10*(i/11)); !(x == 0 && y == 0) {
			lattice.AddNode(x, y)
		}
	}
	lattice.Freeze()
	if lattice.grid.cols != 10 || lattice.grid.cellW != 10 {
		t.Fatalf("lattice grid is %d columns of width %v, want 10 of 10", lattice.grid.cols, lattice.grid.cellW)
	}
	graphs := map[string]*Graph{"lattice": lattice, "scatter": bandGraph(2000, true)}
	centres := [][2]float64{{50, 50}, {40, 60}, {47.5, 52.5}, {0, 0}, {100, 35}}
	bands := [][2]float64{
		{0, 0}, {10, 10}, {0, 10}, {10, 30}, {20, 50}, {30, 40}, {50, 50},
		{0, 200}, // swallows every cell
		{5, 45}, {25, 26}, {150, 300}, {40, 30},
	}
	for name, g := range graphs {
		pos := map[NodeID][2]int{}
		for c, cell := range g.grid.cells {
			for k, id := range cell {
				pos[id] = [2]int{c, k}
			}
		}
		for _, ctr := range centres {
			for _, band := range bands {
				x, y, inner, outer := ctr[0], ctr[1], band[0], band[1]
				got := g.AppendNodesInBand(nil, x, y, inner, outer)
				want := map[NodeID]bool{}
				for _, n := range g.Nodes() {
					if d2 := (n.X-x)*(n.X-x) + (n.Y-y)*(n.Y-y); d2 >= inner*inner && d2 <= outer*outer {
						want[n.ID] = true
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%s centre %v band %v: %d nodes, node-by-node %d", name, ctr, band, len(got), len(want))
				}
				for i, id := range got {
					if !want[id] {
						t.Fatalf("%s centre %v band %v: node %d is not in the band", name, ctr, band, id)
					}
					if i > 0 {
						a, b := pos[got[i-1]], pos[id]
						if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
							t.Fatalf("%s centre %v band %v: nodes %d, %d out of grid order", name, ctr, band, got[i-1], id)
						}
					}
				}
			}
		}
	}
}

func TestNodesWithinDegenerateGeometry(t *testing.T) {
	// All nodes on one vertical line: the grid has zero width in x.
	g := NewGraph(5, 0)
	for i := 0; i < 5; i++ {
		g.AddNode(7, float64(i))
	}
	g.Freeze()
	if got := g.NodesWithin(7, 0, 2.5); len(got) != 3 {
		t.Errorf("NodesWithin on collinear nodes = %d results, want 3", len(got))
	}
	if got := g.NearestNode(7, 4.4); g.Node(got).Y != 4 {
		t.Errorf("NearestNode on collinear nodes picked y=%v, want 4", g.Node(got).Y)
	}
}

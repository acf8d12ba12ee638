package storage

import (
	"reflect"
	"testing"

	"opaque/internal/roadnet"
)

// oneWayGraph is a small frozen graph whose arcs are one-way or carry
// different costs in each direction, so its reverse view differs from the
// forward one.
func oneWayGraph(t *testing.T) *roadnet.Graph {
	t.Helper()
	g := roadnet.NewGraph(4, 5)
	for i := 0; i < 4; i++ {
		g.AddNode(float64(i), 0)
	}
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 0, 4) // asymmetric pair
	g.MustAddEdge(1, 2, 2) // one-way
	g.MustAddEdge(3, 2, 5) // one-way
	g.Freeze()
	return g
}

func collect(acc Accessor, id roadnet.NodeID) []roadnet.Arc {
	var out []roadnet.Arc
	acc.ForEachArc(id, func(a roadnet.Arc) bool {
		out = append(out, a)
		return true
	})
	return out
}

// TestReverseStreamsInArcs checks that the reverse view's ForEachArc and
// Arcs both stream the in-arcs of every node, with To holding the
// predecessor, and that everything else is the forward view's.
func TestReverseStreamsInArcs(t *testing.T) {
	g := oneWayGraph(t)
	fwd := NewMemoryGraph(g)
	rev, ok := Reverse(fwd)
	if !ok {
		t.Fatal("Reverse refused a frozen MemoryGraph")
	}
	for v := roadnet.NodeID(0); int(v) < g.NumNodes(); v++ {
		want := g.ReverseArcs(v)
		if got := collect(rev, v); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("node %d: ForEachArc streamed %v, want in-arcs %v", v, got, want)
		}
		if got := rev.Arcs(v); !reflect.DeepEqual(got, want) {
			t.Errorf("node %d: Arcs = %v, want in-arcs %v", v, got, want)
		}
	}
	if got := rev.Arcs(2); len(got) != 2 || got[0] != (roadnet.Arc{To: 1, Cost: 2}) || got[1] != (roadnet.Arc{To: 3, Cost: 5}) {
		t.Errorf("in-arcs of node 2 = %v, want [{1 2} {3 5}]", got)
	}
	if len(rev.Arcs(3)) != 0 {
		t.Errorf("node 3 has no in-arcs, reverse view streamed %v", rev.Arcs(3))
	}
	if rev.NumNodes() != fwd.NumNodes() || rev.Graph() != g || rev.Euclid(0, 3) != fwd.Euclid(0, 3) {
		t.Error("reverse view does not share the forward view's nodes, graph and coordinates")
	}
}

// TestReverseChargesPagedAccess checks that reading a node's in-arcs on a
// paged graph charges exactly the page access reading its out-arcs does.
func TestReverseChargesPagedAccess(t *testing.T) {
	g := testGraph(t)
	ps := MustBuild(g, Config{NodesPerPage: 16, Partitioning: ConnectivityClustered})
	fwdPool, revPool := MustNewBufferPool(4), MustNewBufferPool(4)
	fwd := NewPagedGraph(ps, fwdPool)
	rev, ok := Reverse(NewPagedGraph(ps, revPool))
	if !ok {
		t.Fatal("Reverse refused a PagedGraph")
	}
	for v := roadnet.NodeID(0); v < 100; v += 7 {
		fwd.ForEachArc(v, func(roadnet.Arc) bool { return true })
		rev.ForEachArc(v, func(roadnet.Arc) bool { return true })
		_ = fwd.Arcs(v)
		_ = rev.Arcs(v)
	}
	if f, r := fwdPool.Stats(), revPool.Stats(); f != r || f.Accesses == 0 {
		t.Errorf("reverse page I/O %+v differs from forward %+v", r, f)
	}
}

// TestReverseKeepsGeneration checks that the view reports its forward view's
// data generation: following a MemoryGraph's bumps, fixed for a snapshot.
func TestReverseKeepsGeneration(t *testing.T) {
	g := oneWayGraph(t)
	mem := NewMemoryGraph(g)
	rev, _ := Reverse(mem)
	mem.BumpGeneration()
	if got := GenerationOf(rev); got != 1 {
		t.Errorf("reverse of a bumped MemoryGraph reports generation %d, want 1", got)
	}

	m := NewMutableGraph(g)
	if _, err := m.UpdateWeights([]roadnet.ArcWeightChange{{From: 1, To: 2, NewCost: 7}}); err != nil {
		t.Fatal(err)
	}
	snap := SnapshotOf(m)
	rev, ok := Reverse(snap)
	if !ok {
		t.Fatal("Reverse refused a GraphSnapshot")
	}
	if _, err := m.UpdateWeights([]roadnet.ArcWeightChange{{From: 0, To: 1, NewCost: 9}}); err != nil {
		t.Fatal(err)
	}
	if got := GenerationOf(rev); got != 1 {
		t.Errorf("reverse of a generation-1 snapshot reports generation %d after a later update", got)
	}
	// The snapshot's in-arcs carry the snapshot's weights: 1→2 updated,
	// 0→1 not (the later update went to a newer snapshot).
	if got := rev.Arcs(2)[0]; got != (roadnet.Arc{To: 1, Cost: 7}) {
		t.Errorf("in-arc 1→2 of the snapshot = %v, want cost 7", got)
	}
	if got := rev.Arcs(1)[0]; got != (roadnet.Arc{To: 0, Cost: 1}) {
		t.Errorf("in-arc 0→1 of the snapshot = %v, want cost 1", got)
	}
}

// TestReverseRefusesUnpinnedAndFiltered checks the accessors without a
// reverse view: a live MutableGraph (pin it first), a filtered view and an
// unfrozen graph.
func TestReverseRefusesUnpinnedAndFiltered(t *testing.T) {
	g := oneWayGraph(t)
	unfrozen := roadnet.NewGraph(1, 0)
	unfrozen.AddNode(0, 0)
	for name, acc := range map[string]Accessor{
		"mutable":  NewMutableGraph(g),
		"filtered": NewFilteredGraph(NewMemoryGraph(g), nil),
		"unfrozen": NewMemoryGraph(unfrozen),
	} {
		if _, ok := Reverse(acc); ok {
			t.Errorf("Reverse accepted a %s accessor", name)
		}
	}
}

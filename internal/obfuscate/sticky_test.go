package obfuscate

import (
	"testing"

	"opaque/internal/roadnet"
)

func TestStickySelectorReusesFakes(t *testing.T) {
	g := testGraph(t)
	sticky := NewStickySelector(testSelector(g, 301), 0)
	if sticky.Name() != "sticky-ringband" {
		t.Errorf("Name = %q", sticky.Name())
	}
	truth := roadnet.NodeID(42)
	first := sticky.SelectFakes(g, truth, 5, nil)
	second := sticky.SelectFakes(g, truth, 5, nil)
	if len(first) != 5 || len(second) != 5 {
		t.Fatalf("selection sizes %d/%d, want 5/5", len(first), len(second))
	}
	asSet := func(ids []roadnet.NodeID) map[roadnet.NodeID]struct{} {
		m := map[roadnet.NodeID]struct{}{}
		for _, id := range ids {
			m[id] = struct{}{}
		}
		return m
	}
	fs, ss := asSet(first), asSet(second)
	for id := range ss {
		if _, ok := fs[id]; !ok {
			t.Errorf("second selection drew a fresh fake %d; sticky selection must reuse the first draw", id)
		}
	}
	if sticky.Entries() != 1 {
		t.Errorf("memo entries = %d, want 1", sticky.Entries())
	}
}

func TestStickySelectorDifferentEndpointsIndependent(t *testing.T) {
	g := testGraph(t)
	sticky := NewStickySelector(testSelector(g, 303), 0)
	a := sticky.SelectFakes(g, 10, 4, nil)
	b := sticky.SelectFakes(g, 700, 4, nil)
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("no fakes selected")
	}
	if sticky.Entries() != 2 {
		t.Errorf("memo entries = %d, want 2", sticky.Entries())
	}
}

func TestStickySelectorHonoursExclusions(t *testing.T) {
	g := testGraph(t)
	sticky := NewStickySelector(testSelector(g, 305), 0)
	truth := roadnet.NodeID(99)
	first := sticky.SelectFakes(g, truth, 4, nil)
	if len(first) != 4 {
		t.Fatalf("want 4 fakes, got %d", len(first))
	}
	// Exclude one of the cached fakes; the next selection must avoid it and
	// top up from the inner selector.
	exclude := map[roadnet.NodeID]struct{}{first[0]: {}}
	second := sticky.SelectFakes(g, truth, 4, exclude)
	if len(second) != 4 {
		t.Fatalf("want 4 fakes after exclusion, got %d", len(second))
	}
	for _, id := range second {
		if id == first[0] {
			t.Error("excluded node returned")
		}
		if id == truth {
			t.Error("true endpoint returned")
		}
	}
}

func TestStickySelectorGrowsPool(t *testing.T) {
	g := testGraph(t)
	sticky := NewStickySelector(testSelector(g, 307), 0)
	truth := roadnet.NodeID(123)
	small := sticky.SelectFakes(g, truth, 2, nil)
	large := sticky.SelectFakes(g, truth, 6, nil)
	if len(large) != 6 {
		t.Fatalf("want 6 fakes, got %d", len(large))
	}
	// The larger draw must start with the previously cached fakes.
	cached := map[roadnet.NodeID]struct{}{}
	for _, id := range small {
		cached[id] = struct{}{}
	}
	hit := 0
	for _, id := range large {
		if _, ok := cached[id]; ok {
			hit++
		}
	}
	if hit != len(small) {
		t.Errorf("larger selection reused %d of %d cached fakes", hit, len(small))
	}
}

func TestStickySelectorEvictionAndReset(t *testing.T) {
	g := testGraph(t)
	sticky := NewStickySelector(testSelector(g, 309), 3)
	for i := 0; i < 6; i++ {
		sticky.SelectFakes(g, roadnet.NodeID(i*50), 2, nil)
	}
	if sticky.Entries() > 3 {
		t.Errorf("memo grew to %d entries, cap is 3", sticky.Entries())
	}
	sticky.Reset()
	if sticky.Entries() != 0 {
		t.Error("Reset did not clear the memo")
	}
}

// countingSelector counts the calls it forwards to the wrapped selector.
type countingSelector struct {
	EndpointSelector
	calls int
}

func (c *countingSelector) SelectFakes(g *roadnet.Graph, truth roadnet.NodeID, count int, exclude map[roadnet.NodeID]struct{}) []roadnet.NodeID {
	c.calls++
	return c.EndpointSelector.SelectFakes(g, truth, count, exclude)
}

// TestStickySelectorHitIsCheap: a request served entirely from the memo
// neither calls the inner selector nor rebuilds the memo entry, so it
// allocates only the returned slice, and the memo keeps the same set.
func TestStickySelectorHitIsCheap(t *testing.T) {
	g := testGraph(t)
	inner := &countingSelector{EndpointSelector: testSelector(g, 311)}
	sticky := NewStickySelector(inner, 0)
	truth := roadnet.NodeID(321)
	first := sticky.SelectFakes(g, truth, 6, nil)
	exclude := map[roadnet.NodeID]struct{}{first[0]: {}}
	if allocs := testing.AllocsPerRun(20, func() { sticky.SelectFakes(g, truth, 5, exclude) }); allocs > 1 {
		t.Errorf("memo hit allocates %.1f times, want 1 (the result)", allocs)
	}
	if inner.calls != 1 {
		t.Errorf("inner selector called %d times, want 1 (the first draw only)", inner.calls)
	}
	again := sticky.SelectFakes(g, truth, 6, nil)
	want := mergeNodeSets(first, nil)
	for i := range want {
		if again[i] != want[i] {
			t.Fatalf("memo changed across hits: first drew %v, now serves %v", first, again)
		}
	}
}

func TestMergeNodeSets(t *testing.T) {
	got := mergeNodeSets([]roadnet.NodeID{3, 1}, []roadnet.NodeID{2, 3})
	want := []roadnet.NodeID{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("mergeNodeSets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("mergeNodeSets[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestStickyDefeatsLinkage is the unit-level version of experiment E10: the
// intersection of repeated observations stays at the full obfuscated size
// when fakes are sticky, instead of collapsing to the true endpoints.
func TestStickyDefeatsLinkage(t *testing.T) {
	g := testGraph(t)
	truth := Request{User: "alice", Source: 7, Dest: 900, FS: 4, FT: 4}

	observe := func(sel EndpointSelector, rounds int) (minSrcSetSize int) {
		minSrcSetSize = 1 << 30
		persistent := map[roadnet.NodeID]int{}
		for r := 0; r < rounds; r++ {
			o := MustNew(g, Config{Mode: Independent, Cluster: ClusterNone, Selector: sel, Seed: uint64(400 + r)})
			plan, err := o.Obfuscate([]Request{truth})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range plan.Queries[0].Sources {
				persistent[s]++
			}
			count := 0
			for _, c := range persistent {
				if c == r+1 {
					count++
				}
			}
			if count < minSrcSetSize {
				minSrcSetSize = count
			}
		}
		return minSrcSetSize
	}

	sticky := NewStickySelector(testSelector(g, 401), 0)
	stickyResidual := observe(sticky, 5)
	if stickyResidual < 4 {
		t.Errorf("sticky fakes: intersection shrank to %d candidate sources, want the full 4", stickyResidual)
	}

	freshResidual := observe(testSelector(g, 402), 5)
	// With one fresh selector reused across rounds the draws differ because
	// its internal RNG advances; after 5 observations the intersection is
	// expected to be (nearly) pinned to the true source.
	if freshResidual >= stickyResidual {
		t.Errorf("fresh fakes left %d persistent sources, sticky left %d — sticky must preserve at least as much anonymity", freshResidual, stickyResidual)
	}
}

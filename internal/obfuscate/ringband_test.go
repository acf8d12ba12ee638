package obfuscate

import (
	"math"
	"sort"
	"testing"

	"opaque/internal/roadnet"
)

// bandNodes lists, by brute force, the nodes at Euclidean distance in
// [inner, outer] from truth.
func bandNodes(g *roadnet.Graph, truth roadnet.NodeID, inner, outer float64) []roadnet.NodeID {
	var out []roadnet.NodeID
	for _, n := range g.Nodes() {
		if d := g.Euclid(truth, n.ID); d >= inner && d <= outer {
			out = append(out, n.ID)
		}
	}
	return out
}

// widenedMax replays the selector's widening rule by brute force: the outer
// radius doubles while the band holds fewer than count+len(exclude)+1 nodes,
// up to 64× MaxRadius.
func widenedMax(g *roadnet.Graph, s *RingBandSelector, truth roadnet.NodeID, count, excluded int) float64 {
	widen := s.MaxRadius
	for len(bandNodes(g, truth, s.MinRadius, widen)) < count+excluded+1 && widen < 64*s.MaxRadius {
		widen *= 2
	}
	return widen
}

// TestRingBandFakesStayInBand draws fakes for many truths, counts and
// exclusion sets from one selector (so its reused candidate buffer goes from
// large bands to small ones and back) and checks every fake lies in
// [MinRadius, widened MaxRadius] and is never the truth, an excluded node or
// a duplicate.
func TestRingBandFakesStayInBand(t *testing.T) {
	g := testGraph(t)
	minX, minY, maxX, maxY := g.Bounds()
	extent := math.Max(maxX-minX, maxY-minY)
	sel := MustNewRingBandSelector(0.03*extent, 0.1*extent, 17)
	for trial := 0; trial < 60; trial++ {
		truth := roadnet.NodeID((trial * 97) % g.NumNodes())
		count := 1 + trial%9
		exclude := map[roadnet.NodeID]struct{}{}
		// Exclude some band nodes so exclusion is exercised on drawn nodes.
		for i, id := range bandNodes(g, truth, sel.MinRadius, sel.MaxRadius) {
			if i%3 == trial%3 {
				exclude[id] = struct{}{}
			}
		}
		maxR := widenedMax(g, sel, truth, count, len(exclude))
		fakes := sel.SelectFakes(g, truth, count, exclude)
		eligible := 0
		for _, id := range bandNodes(g, truth, sel.MinRadius, maxR) {
			if _, skip := exclude[id]; !skip && id != truth {
				eligible++
			}
		}
		if want := min(count, eligible); len(fakes) != want {
			t.Errorf("truth %d: %d fakes, want %d (count %d, %d eligible)", truth, len(fakes), want, count, eligible)
		}
		seen := map[roadnet.NodeID]bool{}
		for _, f := range fakes {
			if f == truth {
				t.Errorf("truth %d returned as its own fake", truth)
			}
			if _, skip := exclude[f]; skip {
				t.Errorf("truth %d: excluded node %d returned", truth, f)
			}
			if seen[f] {
				t.Errorf("truth %d: duplicate fake %d", truth, f)
			}
			seen[f] = true
			if d := g.Euclid(truth, f); d < sel.MinRadius || d > maxR {
				t.Errorf("truth %d: fake %d at distance %v outside [%v, %v]", truth, f, d, sel.MinRadius, maxR)
			}
		}
	}
}

// lineGraph puts node i at (i, 0) for i in [0, n).
func lineGraph(n int) *roadnet.Graph {
	g := roadnet.NewGraph(n, 0)
	for i := 0; i < n; i++ {
		g.AddNode(float64(i), 0)
	}
	g.Freeze()
	return g
}

// TestRingBandReturnsEligibleSetWhenShort asks for more fakes than the band
// can supply once widening stops (at 64× MaxRadius, or because the map has
// no more nodes) and expects exactly the eligible set back.
func TestRingBandReturnsEligibleSetWhenShort(t *testing.T) {
	g := lineGraph(200)
	for _, tc := range []struct {
		name     string
		min, max float64
		wantMax  float64 // outer radius once widening stops
	}{
		{"widening capped", 0.5, 1, 64},
		{"map exhausted", 2, 500, 500},
	} {
		sel := MustNewRingBandSelector(tc.min, tc.max, 5)
		truth := roadnet.NodeID(0)
		exclude := map[roadnet.NodeID]struct{}{3: {}, 10: {}}
		var want []roadnet.NodeID
		for _, id := range bandNodes(g, truth, tc.min, tc.wantMax) {
			if _, skip := exclude[id]; !skip {
				want = append(want, id)
			}
		}
		got := sel.SelectFakes(g, truth, 1000, exclude)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			t.Fatalf("%s: %d fakes, want the %d eligible nodes", tc.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: got %v, want %v", tc.name, got, want)
			}
		}
	}
}

// TestRingBandDrawsUniformly pins the privacy-relevant distribution: with a
// fixed seed, each eligible node of a small band is drawn equally often, by
// a chi-square test on the per-node draw counts. The band includes the truth
// (MinRadius 0) and two excluded nodes, which must never be drawn.
func TestRingBandDrawsUniformly(t *testing.T) {
	const ringNodes, count, trials = 14, 3, 4000
	g := roadnet.NewGraph(ringNodes+5, 0)
	truth := g.AddNode(0, 0)
	var ring []roadnet.NodeID
	for i := 0; i < ringNodes; i++ {
		a := 2 * math.Pi * float64(i) / ringNodes
		ring = append(ring, g.AddNode(5*math.Cos(a), 5*math.Sin(a)))
	}
	for i := 0; i < 4; i++ {
		g.AddNode(100+float64(i), 100) // outside the band, never reached by widening
	}
	g.Freeze()
	exclude := map[roadnet.NodeID]struct{}{ring[2]: {}, ring[9]: {}}
	sel := MustNewRingBandSelector(0, 10, 2024)

	hits := map[roadnet.NodeID]int{}
	for i := 0; i < trials; i++ {
		fakes := sel.SelectFakes(g, truth, count, exclude)
		if len(fakes) != count {
			t.Fatalf("trial %d: %d fakes, want %d", i, len(fakes), count)
		}
		for _, f := range fakes {
			hits[f]++
		}
	}
	eligible := ringNodes - len(exclude)
	if len(hits) != eligible {
		t.Fatalf("drew %d distinct nodes, want the %d eligible ones: %v", len(hits), eligible, hits)
	}
	expected := float64(trials*count) / float64(eligible)
	chi2 := 0.0
	for id, h := range hits {
		if _, skip := exclude[id]; skip || id == truth {
			t.Fatalf("ineligible node %d drawn %d times", id, h)
		}
		d := float64(h) - expected
		chi2 += d * d / expected
	}
	// 31.26 is the 0.999 quantile of chi-square with 11 degrees of freedom.
	if chi2 > 31.26 {
		t.Errorf("draw counts %v not uniform: chi-square %.2f > 31.26", hits, chi2)
	}
}

// TestRingBandReusesItsBuffer pins the allocation profile of the hot path:
// after the first call has grown the candidate buffer, a draw allocates only
// the returned slice.
func TestRingBandReusesItsBuffer(t *testing.T) {
	g := testGraph(t)
	sel := testSelector(g, 23).(*RingBandSelector)
	truth := roadnet.NodeID(g.NumNodes() / 2)
	sel.SelectFakes(g, truth, 8, nil)
	if allocs := testing.AllocsPerRun(50, func() { sel.SelectFakes(g, truth, 8, nil) }); allocs > 1 {
		t.Errorf("SelectFakes allocates %.1f times per call, want 1 (the result)", allocs)
	}
}

package server

import (
	"testing"

	"opaque/internal/protocol"
	"opaque/internal/roadnet"
)

// TestHybridCutoverBoundary pins the DefaultCHMaxPairs = 4 routing
// semantics at the boundary: |S|·|T| of 3 and 4 route pairwise to the
// overlay (the cutover is inclusive), 5 routes to the many-to-many engine.
func TestHybridCutoverBoundary(t *testing.T) {
	g := testGraph(t)
	overlay := chTestOverlay(t, g)
	if DefaultCHMaxPairs != 4 {
		t.Fatalf("DefaultCHMaxPairs = %d; the shapes below pin the cutover at 4", DefaultCHMaxPairs)
	}
	cases := []struct {
		name            string
		sources, dests  []roadnet.NodeID
		wantCH, wantMTM int64
	}{
		{"1x3 below", []roadnet.NodeID{10}, []roadnet.NodeID{20, 30, 40}, 1, 0},
		{"2x2 at", []roadnet.NodeID{10, 11}, []roadnet.NodeID{20, 30}, 1, 0},
		{"1x5 above", []roadnet.NodeID{10}, []roadnet.NodeID{20, 30, 40, 50, 60}, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Strategy = StrategyHybrid
			cfg.CHOverlay = overlay
			srv := MustNew(g, cfg)
			if _, err := srv.Evaluate(protocol.ServerQuery{Sources: tc.sources, Dests: tc.dests}); err != nil {
				t.Fatal(err)
			}
			if n := srv.Metrics().Counter("ch_queries"); n != tc.wantCH {
				t.Fatalf("ch_queries = %d, want %d", n, tc.wantCH)
			}
			if n := srv.Metrics().Counter("mtm_queries"); n != tc.wantMTM {
				t.Fatalf("mtm_queries = %d, want %d", n, tc.wantMTM)
			}
			if n := srv.Metrics().Counter("fallback_queries"); n != 0 {
				t.Fatalf("fallback_queries = %d, want 0 (hybrid with an overlay never routes to SSMD)", n)
			}
		})
	}
}

// TestHybridWithoutOverlayFallsBackToSSMD asserts the degraded hybrid mode:
// no overlay, no BuildCH — the server still comes up, every query runs on
// the SSMD processor (tree cache included), and the routing counters say so.
func TestHybridWithoutOverlayFallsBackToSSMD(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	cfg.TreeCache = 16
	srv, err := New(g, cfg)
	if err != nil {
		t.Fatalf("hybrid without overlay must degrade to SSMD, got error: %v", err)
	}
	if srv.Overlay() != nil {
		t.Fatal("server reports an overlay it was never given")
	}
	q := protocol.ServerQuery{Sources: []roadnet.NodeID{5, 6}, Dests: []roadnet.NodeID{300, 301, 302, 303, 304, 305, 306, 307, 308}}
	if _, err := srv.Evaluate(q); err != nil {
		t.Fatal(err)
	}
	if n := srv.Metrics().Counter("fallback_queries"); n != 1 {
		t.Fatalf("fallback_queries = %d, want 1", n)
	}
	if n := srv.Metrics().Counter("ch_queries") + srv.Metrics().Counter("mtm_queries"); n != 0 {
		t.Fatalf("overlay routing counters moved without an overlay: %d", n)
	}
	if st := srv.TreeCacheStats(); st.Hits+st.Misses == 0 {
		t.Fatal("fallback query bypassed the SSMD tree cache")
	}
	if st := srv.MTMStats(); st.Tables != 0 || st.BucketEntries != 0 {
		t.Fatalf("MTMStats without an overlay = %+v, want zeroes", st)
	}
}

// TestMTMMetricsSurfaced asserts the bucket-engine instrumentation reaches
// the metrics registry the periodic stats log reads.
func TestMTMMetricsSurfaced(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	cfg.CHOverlay = chTestOverlay(t, g)
	srv := MustNew(g, cfg)
	// 12 pairs: routes to the bucket engine.
	if _, err := srv.Evaluate(protocol.ServerQuery{Sources: []roadnet.NodeID{1, 2, 3}, Dests: []roadnet.NodeID{500, 501, 502, 503}}); err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	st := srv.MTMStats()
	if st.Tables != 1 || st.BucketEntries == 0 || st.BucketEntriesScanned == 0 || st.ArenaHighWater == 0 {
		t.Fatalf("MTM stats after one table: %+v", st)
	}
	if got := m.Gauge("mtm_tables"); got != float64(st.Tables) {
		t.Fatalf("mtm_tables gauge = %v, engine says %d", got, st.Tables)
	}
	if got := m.Gauge("mtm_bucket_entries"); got != float64(st.BucketEntries) {
		t.Fatalf("mtm_bucket_entries gauge = %v, engine says %d", got, st.BucketEntries)
	}
	if got := m.Gauge("mtm_bucket_entries_scanned"); got != float64(st.BucketEntriesScanned) {
		t.Fatalf("mtm_bucket_entries_scanned gauge = %v, engine says %d", got, st.BucketEntriesScanned)
	}
	if got := m.Gauge("mtm_arena_high_water"); got != float64(st.ArenaHighWater) {
		t.Fatalf("mtm_arena_high_water gauge = %v, engine says %d", got, st.ArenaHighWater)
	}
}

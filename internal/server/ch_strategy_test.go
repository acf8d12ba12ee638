package server

import (
	"math"
	"testing"

	"opaque/internal/ch"
	"opaque/internal/gen"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// chTestOverlay builds the overlay for testGraph once per test binary; the
// contraction pass is the expensive part of these tests.
func chTestOverlay(t testing.TB, g *roadnet.Graph) *ch.Overlay {
	t.Helper()
	o, err := ch.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestStrategyCHMatchesSSMD runs queries of up to DefaultCHMaxPairs
// candidate pairs — the pairwise CH route of a hybrid server — through a
// hybrid server with an overlay and a plain SSMD server and asserts
// identical candidate costs and reachability: the server-level face of the
// CH correctness property.
func TestStrategyCHMatchesSSMD(t *testing.T) {
	queries := []protocol.ServerQuery{
		{QueryID: 1, Sources: []roadnet.NodeID{700}, Dests: []roadnet.NodeID{3}},
		{QueryID: 2, Sources: []roadnet.NodeID{1, 50}, Dests: []roadnet.NodeID{200, 400}},
		{QueryID: 3, Sources: []roadnet.NodeID{10}, Dests: []roadnet.NodeID{11, 21, 31}},
		{QueryID: 4, Sources: []roadnet.NodeID{1, 700}, Dests: []roadnet.NodeID{600, 3}}, // 2×2: at the cutover
		{QueryID: 5, Sources: []roadnet.NodeID{5, 5}, Dests: []roadnet.NodeID{5, 9}},     // duplicates and s==t cells
	}
	srv := hybridMatchesSSMD(t, queries)
	m := srv.Metrics()
	if n := m.Counter("ch_queries"); n != int64(len(queries)) {
		t.Fatalf("ch_queries = %d, want %d", n, len(queries))
	}
	if n := m.Counter("mtm_queries"); n != 0 {
		t.Fatalf("mtm_queries = %d, want 0", n)
	}
}

// TestStrategyCHMTMMatchesSSMD is TestStrategyCHMatchesSSMD for queries
// wider than DefaultCHMaxPairs, which a hybrid server sends to the
// many-to-many bucket engine: the server-level face of the many-to-many
// correctness property.
func TestStrategyCHMTMMatchesSSMD(t *testing.T) {
	queries := []protocol.ServerQuery{
		{QueryID: 1, Sources: []roadnet.NodeID{1, 50}, Dests: []roadnet.NodeID{200, 400, 600}},
		{QueryID: 2, Sources: []roadnet.NodeID{10, 20, 30}, Dests: []roadnet.NodeID{11, 21, 31}},
		{QueryID: 3, Sources: []roadnet.NodeID{10, 20, 30, 40}, Dests: []roadnet.NodeID{11, 21, 31, 41, 51, 61}},
		{QueryID: 4, Sources: []roadnet.NodeID{5, 5, 6}, Dests: []roadnet.NodeID{5, 9}},        // duplicates and s==t cells
		{QueryID: 5, Sources: []roadnet.NodeID{1}, Dests: []roadnet.NodeID{3, 11, 21, 31, 41}}, // 1×5: just above the cutover
	}
	srv := hybridMatchesSSMD(t, queries)
	m := srv.Metrics()
	if n := m.Counter("mtm_queries"); n != int64(len(queries)) {
		t.Fatalf("mtm_queries = %d, want %d", n, len(queries))
	}
	if n := m.Counter("ch_queries"); n != 0 {
		t.Fatalf("ch_queries = %d, want 0", n)
	}
	if st := srv.MTMStats(); st.Tables != int64(len(queries)) {
		t.Fatalf("MTM Tables = %d, want %d", st.Tables, len(queries))
	}
}

// hybridMatchesSSMD evaluates queries on a hybrid server with an overlay
// and on a plain SSMD server, fails t unless every candidate agrees in
// endpoints, reachability and cost, and returns the hybrid server so the
// caller can check which route answered.
func hybridMatchesSSMD(t *testing.T, queries []protocol.ServerQuery) *Server {
	t.Helper()
	g := testGraph(t)
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	cfg.CHOverlay = chTestOverlay(t, g)
	hybridSrv := MustNew(g, cfg)
	ssmdSrv := MustNew(g, DefaultConfig())
	for _, q := range queries {
		got, err := hybridSrv.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ssmdSrv.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Paths) != len(want.Paths) {
			t.Fatalf("query %d: %d paths vs %d", q.QueryID, len(got.Paths), len(want.Paths))
		}
		for i := range got.Paths {
			gp, wp := got.Paths[i], want.Paths[i]
			if gp.Source != wp.Source || gp.Dest != wp.Dest {
				t.Fatalf("query %d: candidate %d is for (%d,%d), want (%d,%d)", q.QueryID, i, gp.Source, gp.Dest, wp.Source, wp.Dest)
			}
			if (len(gp.Nodes) == 0) != (len(wp.Nodes) == 0) {
				t.Fatalf("query %d pair (%d,%d): reachability disagrees", q.QueryID, gp.Source, gp.Dest)
			}
			if len(gp.Nodes) != 0 && math.Abs(gp.Cost-wp.Cost) > 1e-9*(1+wp.Cost) {
				t.Fatalf("query %d pair (%d,%d): hybrid cost %v, SSMD cost %v", q.QueryID, gp.Source, gp.Dest, gp.Cost, wp.Cost)
			}
		}
	}
	return hybridSrv
}

// TestStrategyHybridRouting asserts the pair-count cutover: small queries
// route pairwise to the overlay, wide ones to the many-to-many bucket
// engine, and both produce correct results.
func TestStrategyHybridRouting(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	cfg.CHOverlay = chTestOverlay(t, g)
	srv := MustNew(g, cfg)
	acc := storage.NewMemoryGraph(g)

	small := protocol.ServerQuery{QueryID: 1, Sources: []roadnet.NodeID{5}, Dests: []roadnet.NodeID{300, 301}}         // 2 pairs → pairwise CH
	large := protocol.ServerQuery{QueryID: 2, Sources: []roadnet.NodeID{5, 6}, Dests: []roadnet.NodeID{300, 301, 302}} // 6 pairs → MTM
	for _, q := range []protocol.ServerQuery{small, large} {
		reply, err := srv.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range reply.Paths {
			want, _, err := search.Dijkstra(acc, c.Source, c.Dest)
			if err != nil {
				t.Fatal(err)
			}
			if len(c.Nodes) != 0 && math.Abs(c.Cost-want.Cost) > 1e-9*(1+want.Cost) {
				t.Fatalf("pair (%d,%d): hybrid cost %v, Dijkstra %v", c.Source, c.Dest, c.Cost, want.Cost)
			}
		}
	}
	if n := srv.Metrics().Counter("ch_queries"); n != 1 {
		t.Fatalf("ch_queries = %d, want 1 (only the small query routes to pairwise CH)", n)
	}
	if n := srv.Metrics().Counter("mtm_queries"); n != 1 {
		t.Fatalf("mtm_queries = %d, want 1 (the wide query routes to the bucket engine)", n)
	}
	if st := srv.MTMStats(); st.Tables != 1 || st.BucketEntries == 0 {
		t.Fatalf("MTM engine stats do not reflect the wide query: %+v", st)
	}
}

// TestCHStrategyConfigValidation covers the hybrid overlay requirements: a
// mismatched overlay is refused, and BuildCH builds one. (Without either,
// hybrid degrades to SSMD: TestHybridWithoutOverlayFallsBackToSSMD.)
func TestCHStrategyConfigValidation(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	otherCfg := gen.DefaultNetworkConfig()
	otherCfg.Nodes = 300
	otherCfg.Seed = 1234
	other := gen.MustGenerate(otherCfg)
	cfg.CHOverlay = chTestOverlay(t, other)
	if _, err := New(g, cfg); err == nil {
		t.Fatal("overlay for a different graph accepted")
	}
	cfg.CHOverlay = nil
	cfg.BuildCH = true
	srv, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Overlay() == nil {
		t.Fatal("BuildCH server has no overlay")
	}
	if srv.Overlay().NumNodes() != g.NumNodes() {
		t.Fatalf("built overlay covers %d nodes, graph has %d", srv.Overlay().NumNodes(), g.NumNodes())
	}
}

// TestWorkspacePoolStatsSurfaced asserts the pool counters climb with
// traffic and are mirrored into the metrics registry the periodic stats log
// reads.
func TestWorkspacePoolStatsSurfaced(t *testing.T) {
	g := testGraph(t)
	srv := MustNew(g, DefaultConfig())
	for i := 0; i < 5; i++ {
		if _, err := srv.Evaluate(protocol.ServerQuery{Sources: []roadnet.NodeID{roadnet.NodeID(i)}, Dests: []roadnet.NodeID{400}}); err != nil {
			t.Fatal(err)
		}
	}
	ws := srv.WorkspacePoolStats()
	if ws.Gets < 5 {
		t.Fatalf("pool Gets = %d after 5 queries, want ≥ 5", ws.Gets)
	}
	if ws.InFlight() != 0 {
		t.Fatalf("pool InFlight = %d at rest, want 0", ws.InFlight())
	}
	if ws.Puts != ws.Gets {
		t.Fatalf("pool Puts = %d, Gets = %d — a workspace leaked", ws.Puts, ws.Gets)
	}
	m := srv.Metrics()
	if got := m.Gauge("workspace_gets"); got != float64(ws.Gets) {
		t.Fatalf("workspace_gets gauge = %v, pool says %d", got, ws.Gets)
	}
	if m.Gauge("workspace_reuse_ratio") < 0 || m.Gauge("workspace_reuse_ratio") > 1 {
		t.Fatalf("workspace_reuse_ratio out of range: %v", m.Gauge("workspace_reuse_ratio"))
	}
}

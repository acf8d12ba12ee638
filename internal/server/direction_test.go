package server

import (
	"testing"

	"opaque/internal/protocol"
	"opaque/internal/roadnet"
)

// TestOverlappingBatchStaysForward checks the direction rule on the traffic
// the tree cache was built for: queries whose sources recur. Every query of
// overlappingBatch must stay forward, and the forward trees must serve every
// lookup but one cold build per distinct source — the hit count a cache
// keyed by source alone reaches on this batch.
func TestOverlappingBatchStaysForward(t *testing.T) {
	g := testGraph(t)
	queries := overlappingBatch(g, 24)
	lookups, distinct := 0, make(map[roadnet.NodeID]bool)
	for _, q := range queries {
		lookups += len(q.Sources)
		for _, s := range q.Sources {
			distinct[s] = true
		}
	}
	wantHits := int64(lookups - len(distinct))

	for round := 0; round < 5; round++ {
		srv := MustNew(g, batchConfig())
		for i, r := range srv.EvaluateBatch(queries) {
			if r.Err != nil {
				t.Fatalf("query %d: %v", i, r.Err)
			}
		}
		st := srv.TreeCacheStats()
		if st.ReverseQueries != 0 || st.ReverseHits+st.ReverseMisses != 0 {
			t.Fatalf("round %d: source-reuse batch evaluated in reverse: %+v", round, st)
		}
		if st.ForwardHits < wantHits {
			t.Fatalf("round %d: %d forward hits, want >= %d: %+v", round, st.ForwardHits, wantHits, st)
		}
	}
}

// TestRepeatedDestinationsGoReverseOnServer drives a server with the
// paper's scenario — fresh homes asking for the same clinics — and checks
// that evaluation settles into reverse trees, that the direction gauges
// report it, and that every served distance matches the reference.
func TestRepeatedDestinationsGoReverseOnServer(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	cfg.TreeCache = 32
	srv := MustNew(g, cfg)
	clinics := []roadnet.NodeID{150, 420, 690}
	const queries = 12
	for q := 0; q < queries; q++ {
		home := roadnet.NodeID(5 * q)
		reply, err := srv.Evaluate(protocol.ServerQuery{
			QueryID: uint64(q + 1),
			Sources: []roadnet.NodeID{home, home + 1, home + 2, home + 3},
			Dests:   clinics,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkReplyMatchesGraph(t, g, reply)
	}
	st := srv.TreeCacheStats()
	if st.ReverseQueries < queries-2 || st.ReverseHits == 0 {
		t.Fatalf("repeated destinations did not settle into reverse evaluation: %+v", st)
	}
	m := srv.Metrics()
	for name, want := range map[string]int64{
		"tree_cache_forward_hits":    st.ForwardHits,
		"tree_cache_forward_misses":  st.ForwardMisses,
		"tree_cache_reverse_hits":    st.ReverseHits,
		"tree_cache_reverse_misses":  st.ReverseMisses,
		"tree_cache_reverse_queries": st.ReverseQueries,
		"tree_cache_hits":            st.Hits,
		"tree_cache_misses":          st.Misses,
	} {
		if got := m.Gauge(name); got != float64(want) {
			t.Errorf("gauge %s = %v, want %d", name, got, want)
		}
	}
}

// TestUpdateDropsStaleReverseTrees changes one direction of one arc while
// reverse trees are cached: the trees of the old generation must be dropped
// (counted as invalidations) and the next answers must match the reference
// on the new snapshot, not the old one.
func TestUpdateDropsStaleReverseTrees(t *testing.T) {
	g := updateTestGraph(t, 60, 907)
	cfg := DefaultConfig()
	cfg.TreeCache = 16
	srv := MustNew(g, cfg)
	dests := []roadnet.NodeID{3, 5}
	query := func(q int) protocol.ServerReply {
		t.Helper()
		reply, err := srv.Evaluate(protocol.ServerQuery{
			QueryID: uint64(q + 1),
			Sources: []roadnet.NodeID{roadnet.NodeID(10 + q%40), roadnet.NodeID(50 - q%40)},
			Dests:   dests,
		})
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	var last protocol.ServerReply
	for q := 0; q < 6; q++ {
		last = query(q)
	}
	before := srv.TreeCacheStats()
	if before.ReverseQueries == 0 {
		t.Fatalf("repeated destinations never went reverse: %+v", before)
	}

	// Pick an arc a→b on a served path whose repricing changes that pair's
	// distance, and whose twin b→a exists and is left alone.
	var change roadnet.ArcWeightChange
	var pair protocol.CandidatePath
	for _, cand := range last.Paths {
		for k := 1; k < len(cand.Nodes) && pair.Nodes == nil; k++ {
			a, b := cand.Nodes[k-1], cand.Nodes[k]
			cost, _ := g.ArcCost(a, b)
			if _, twin := g.ArcCost(b, a); !twin {
				continue
			}
			c := roadnet.ArcWeightChange{From: a, To: b, NewCost: cost + 100}
			next, err := g.WithUpdatedWeights([]roadnet.ArcWeightChange{c})
			if err != nil {
				t.Fatal(err)
			}
			if referenceDistance(t, next, cand.Source, cand.Dest) != cand.Cost {
				change, pair = c, cand
			}
		}
	}
	if pair.Nodes == nil {
		t.Fatal("no served arc whose one-way repricing changes a distance")
	}
	twinBefore, _ := g.ArcCost(change.To, change.From)
	if _, err := srv.UpdateWeights([]roadnet.ArcWeightChange{change}); err != nil {
		t.Fatal(err)
	}
	cur := srv.Graph()
	if twin, _ := cur.ArcCost(change.To, change.From); twin != twinBefore {
		t.Fatalf("update touched the twin arc %d→%d", change.To, change.From)
	}

	reply := query(5) // the same query as the last one before the update
	checkReplyMatchesGraph(t, cur, reply)
	for _, cand := range reply.Paths {
		if cand.Source == pair.Source && cand.Dest == pair.Dest && cand.Cost == pair.Cost {
			t.Fatalf("pair (%d,%d) still served its pre-update cost %v", pair.Source, pair.Dest, pair.Cost)
		}
	}
	after := srv.TreeCacheStats()
	if after.ReverseQueries <= before.ReverseQueries {
		t.Fatalf("post-update query left the reverse direction: %+v", after)
	}
	if got := after.Invalidations - before.Invalidations; got < int64(len(dests)) {
		t.Fatalf("%d trees invalidated, want the %d stale reverse trees dropped: %+v", got, len(dests), after)
	}
	if after.ReverseMisses-before.ReverseMisses != int64(len(dests)) {
		t.Fatalf("reverse trees were not rebuilt on the new snapshot: %+v", after)
	}
}

package main

import (
	"fmt"
	"time"

	"opaque/internal/gen"
	"opaque/internal/roadnet"
)

// spec is one named workload: the fixture, the serving stack wired over it
// and the traffic driven through it.
type spec struct {
	name string

	// Fixture: a Tiger-like map generated from a fixed seed, so the map is
	// the same for every workload seed and only the traffic varies.
	nodes   int
	mapSeed uint64

	// Stack shape.
	stack stackKind
	cells int // partition cells of the shared overlay (stackFleet)

	// Obfuscator: shared obfuscation with a sticky selector and a batching
	// window (else independent, every request flushed at once).
	shared bool
	fs, ft int

	// Traffic.
	trips       tripKind
	tripPool    int     // distinct trips (uniformTrips) or destinations (poiTrips)
	openRate    float64 // open-loop requests per second
	outstanding int     // closed-loop requests kept in flight

	// Weight stream (stackFleet): updates per second.
	updateRate float64
}

// Settings every workload that has the layer shares.
const (
	treeCacheSize = 256                   // SSMD tree cache capacity (stackSSMD)
	fleetShards   = 2                     // shard servers behind the router (stackFleet)
	sharedWindow  = 10 * time.Millisecond // batching window of shared obfuscation
	updateArcs    = 8                     // arcs per weight update
	hotArcs       = 64                    // pool of hot arcs the updates draw from
)

// window is the obfuscator's batching window.
func (sp spec) window() time.Duration {
	if sp.shared {
		return sharedWindow
	}
	return 0
}

// openShare is the share of --seconds spent in the open loop; the closed
// loop takes the rest.
const openShare = 0.6

type stackKind int

const (
	// stackSSMD: one StrategySSMD server with a tree cache.
	stackSSMD stackKind = iota
	// stackHybrid: one StrategyHybrid server that builds its customizable
	// overlay at start-up (server.Config.BuildCH).
	stackHybrid
	// stackFleet: a partition-mode router in front of hybrid shards that all
	// load one partitioned customizable overlay from its OCH1 encoding.
	stackFleet
)

type tripKind int

const (
	// poiTrips: homes drawn uniformly over the map, destinations drawn from
	// a small set of points of interest around hotspot centres (the paper's
	// home → clinic scenario). The points of interest belong to the fixture
	// map; the seed draws the homes and which point each one visits.
	poiTrips tripKind = iota
	// uniformTrips: map-scale trips drawn from a seeded pool of uniform
	// source/destination pairs.
	uniformTrips
)

// specs are the benchmark's workloads; BENCHMARK.json and README.md record
// why each was chosen and the layer → end-to-end predictions it carries.
// Rates were sized on a 2-vCPU Xeon so that the open loop keeps the CPUs
// under about half busy; paper-shared's SSMD searches cost the most CPU per
// request, so it runs at the lowest rate.
var specs = []spec{
	{
		name:  "paper-shared",
		nodes: 20000, mapSeed: 2009,
		stack:  stackSSMD,
		shared: true, fs: 4, ft: 4,
		trips: poiTrips, tripPool: 64,
		openRate: 100, outstanding: 32,
	},
	{
		name:  "hybrid-wide",
		nodes: 20000, mapSeed: 2009,
		stack:  stackHybrid,
		shared: false, fs: 8, ft: 8,
		trips: uniformTrips, tripPool: 1024,
		openRate: 150, outstanding: 16,
	},
	{
		name:  "fleet-churn",
		nodes: 10000, mapSeed: 2010,
		stack: stackFleet, cells: 16,
		shared: false, fs: 2, ft: 2,
		trips: uniformTrips, tripPool: 512,
		openRate: 150, outstanding: 8,
		updateRate: 2,
	},
}

func specByName(name string) (spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// tiny shrinks a workload to a size a unit test runs in a few seconds while
// keeping its stack shape and routes. The weight stream runs faster, so the
// short traced phase still meets shards whose overlay is stale.
func (sp spec) tiny() spec {
	sp.nodes = 1500
	if sp.cells > 0 {
		sp.cells = 4
	}
	sp.tripPool = min(sp.tripPool, 64)
	sp.openRate = 60
	sp.outstanding = 4
	if sp.updateRate > 0 {
		sp.updateRate = 50
	}
	return sp
}

// tripSource returns the deterministic trip of request k for one workload
// seed. Every request draws its trip afresh from a hash of (seed, k), so
// open- and closed-loop phases can pull as many requests as they need.
type tripSource struct {
	n    int
	seed uint64
	kind tripKind
	pool []gen.QueryPair  // uniformTrips
	pois []roadnet.NodeID // poiTrips
}

func newTripSource(g *roadnet.Graph, sp spec, seed uint64) (*tripSource, error) {
	ts := &tripSource{n: g.NumNodes(), seed: seed, kind: sp.trips}
	switch sp.trips {
	case poiTrips:
		hot, err := gen.GenerateWorkload(g, gen.WorkloadConfig{
			Kind: gen.Hotspot, Queries: 8 * sp.tripPool, Hotspots: 5, HotspotSpread: 0.05, Seed: sp.mapSeed,
		})
		if err != nil {
			return nil, err
		}
		seen := make(map[roadnet.NodeID]bool)
		for _, q := range hot {
			if len(ts.pois) == sp.tripPool {
				break
			}
			if !seen[q.Dest] {
				seen[q.Dest] = true
				ts.pois = append(ts.pois, q.Dest)
			}
		}
	case uniformTrips:
		pool, err := gen.GenerateWorkload(g, gen.WorkloadConfig{Kind: gen.Uniform, Queries: sp.tripPool, Seed: seed})
		if err != nil {
			return nil, err
		}
		ts.pool = pool
	}
	return ts, nil
}

// trip returns request k's source and destination.
func (ts *tripSource) trip(k uint64) gen.QueryPair {
	h := splitmix(ts.seed ^ splitmix(k))
	if ts.kind == uniformTrips {
		return ts.pool[h%uint64(len(ts.pool))]
	}
	s := roadnet.NodeID(h % uint64(ts.n))
	t := ts.pois[splitmix(h)%uint64(len(ts.pois))]
	if s == t {
		s = (s + 1) % roadnet.NodeID(ts.n)
	}
	return gen.QueryPair{Source: s, Dest: t}
}

// splitmix is the SplitMix64 finaliser: a cheap, well-mixed hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

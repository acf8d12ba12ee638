package server

import (
	"fmt"
	"sort"
	"sync"

	"opaque/internal/ch"
	"opaque/internal/costmodel"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// This file is the server side of precustomized weight-profile serving. A
// profile (costmodel.WeightProfile) is a deterministic reweighting of the
// startup metric — "the morning peak", "night free-flow" — and a profile
// query asks to be answered under that regime instead of the live metric.
// The server precustomizes one complete evaluation state per profile: the
// profile graph, an immutable accessor over it, and (when a hybrid server
// runs an overlay) a customized overlay weight layer sharing the base
// overlay's frozen topology (ch.ProfileSet) with engines and processors
// bound to it. Profile queries route onto that state by the same shape
// routing as live queries, with zero customization work on the query path,
// and — because the state is immutable — they keep full CH speed even while
// the live overlay is mid-re-customization under a heavy update stream.
//
// Profiles deliberately bind to the *startup* graph, not the live snapshot:
// they answer what a trip usually costs under a recurring regime, which the
// live traffic of the moment does not change. This is also what makes the
// layers precustomizable at all — a layer chasing the live metric would
// re-customize on every update, which is exactly the work profile serving
// exists to avoid.

// profileState is everything needed to evaluate queries under one profile.
type profileState struct {
	graph *roadnet.Graph
	acc   storage.Accessor
	// flat is the always-available SSMD processor; overlay holds the
	// engines and processors of the profile's precustomized layer, nil when
	// the server serves without an overlay.
	flat    *search.Processor
	overlay *chState
}

// profileCache resolves profile names to their precustomized states,
// building on demand and bounded by the layer LRU.
type profileCache struct {
	s    *Server
	defs map[string]costmodel.WeightProfile
	// layers is the LRU of customized overlay weight layers; nil when the
	// server serves without an overlay (states are then flat-only and cheap
	// enough to keep unbounded — one accessor and processor each).
	layers *ch.ProfileSet

	mu     sync.Mutex
	states map[string]*profileState
}

// initProfiles validates the profile configuration and builds the cache
// (and, with PrewarmProfiles, every layer). Called from New.
func (s *Server) initProfiles() error {
	if len(s.cfg.Profiles) == 0 {
		return nil
	}
	if s.mutable == nil {
		return fmt.Errorf("server: weight profiles require the in-memory backend (the paged simulation serves exactly one page layout)")
	}
	defs := make(map[string]costmodel.WeightProfile, len(s.cfg.Profiles))
	for _, p := range s.cfg.Profiles {
		if p.Name == "" {
			return fmt.Errorf("server: weight profile with empty name")
		}
		if _, dup := defs[p.Name]; dup {
			return fmt.Errorf("server: duplicate weight profile %q", p.Name)
		}
		defs[p.Name] = p
	}
	pc := &profileCache{s: s, defs: defs, states: make(map[string]*profileState)}
	if st := s.chSt.Load(); st != nil {
		if !st.overlay.Customizable() {
			return fmt.Errorf("server: weight profiles need a customizable overlay to precustomize layers for (this one is witness-pruned)")
		}
		capacity := s.cfg.ProfileCapacity
		if capacity <= 0 {
			capacity = len(defs)
		}
		layers, err := ch.NewProfileSet(st.overlay, capacity)
		if err != nil {
			return fmt.Errorf("server: %w", err)
		}
		// Layer evictions drop the derived state too. The hook runs under
		// the layer set's lock, which is only ever taken while pc.mu is
		// held (state() is the sole caller), so the plain delete is safe.
		layers.SetOnEvict(func(name string) { delete(pc.states, name) })
		pc.layers = layers
	}
	s.profiles = pc
	if s.cfg.PrewarmProfiles {
		names := make([]string, 0, len(defs))
		for name := range defs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if _, err := pc.state(name); err != nil {
				return fmt.Errorf("server: prewarming profile %q: %w", name, err)
			}
		}
	}
	return nil
}

// profileProcessor resolves the query's profile to a processor, building the
// profile state on first use (or after an LRU eviction). The returned
// processor never goes stale: its accessor is immutable and its engines are
// bound to that accessor's constant generation. The second return is the
// profile graph's weight-content checksum — the ContentSum replies under this
// profile are stamped with, so a fleet router can verify every shard answered
// a profile query from the same precustomized metric.
func (s *Server) profileProcessor(q protocol.ServerQuery) (*search.Processor, uint64, error) {
	if s.profiles == nil {
		return nil, 0, fmt.Errorf("query requests weight profile %q but the server has no profiles configured", q.Profile)
	}
	st, err := s.profiles.state(q.Profile)
	if err != nil {
		return nil, 0, err
	}
	sum := st.graph.ContentChecksum()
	if st.overlay == nil {
		return st.flat, sum, nil
	}
	proc, _ := st.overlay.route(q)
	return proc, sum, nil
}

// state returns the evaluation state for the named profile, counting
// profile_layer_hits/misses. Builds serialise behind the cache lock — with
// PrewarmProfiles (the intended deployment) on-demand builds only happen
// after LRU evictions.
func (pc *profileCache) state(name string) (*profileState, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if st, ok := pc.states[name]; ok {
		if pc.layers != nil {
			pc.layers.Layer(name) // LRU touch + layer hit accounting
		}
		pc.s.mProfileHits.Add(1)
		return st, nil
	}
	def, ok := pc.defs[name]
	if !ok {
		known := make([]string, 0, len(pc.defs))
		for n := range pc.defs {
			known = append(known, n)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("unknown weight profile %q (configured: %v)", name, known)
	}
	pc.s.mProfileMiss.Add(1)
	// Profiles reweight the startup graph — not the live snapshot — so the
	// layer stays valid for the server's lifetime (see the file comment).
	pg, err := def.Apply(pc.s.graph)
	if err != nil {
		return nil, fmt.Errorf("applying weight profile %q: %w", name, err)
	}
	var layer *ch.Overlay
	if pc.layers != nil {
		layer, err = pc.layers.Install(name, pg)
		if err != nil {
			return nil, fmt.Errorf("customizing layer for weight profile %q: %w", name, err)
		}
	}
	st := pc.s.newProfileState(pg, layer)
	pc.states[name] = st
	return st, nil
}

// layerCount returns how many profile states are currently resident.
func (pc *profileCache) layerCount() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.states)
}

// newProfileState derives the accessor, engines and processors for one
// profile graph. layer is nil for overlay-less servers. The profile accessor
// is a plain immutable MemoryGraph: its generation is constant 0, the
// engines bind to 0, and the state can therefore never fail the processors'
// staleness checks. No tree cache is attached — the server's cache keys
// trees by (source, generation) and every profile accessor reports
// generation 0, so sharing it would mix trees across metrics.
func (s *Server) newProfileState(pg *roadnet.Graph, layer *ch.Overlay) *profileState {
	acc := storage.NewMemoryGraph(pg)
	st := &profileState{graph: pg, acc: acc}

	st.flat = search.NewProcessor(acc, s.processorOptions(search.WithStrategy(search.StrategySSMD))...)
	if layer != nil {
		st.overlay = s.newCHState(acc, layer, storage.GenerationOf(acc))
	}
	return st
}

// ProfileLayerStats returns the profile layer cache counters (hits, misses,
// evictions, resident layers), or zeroes when the server has no profiles or
// serves them without an overlay.
func (s *Server) ProfileLayerStats() ch.ProfileSetStats {
	if s.profiles == nil {
		return ch.ProfileSetStats{}
	}
	if s.profiles.layers == nil {
		s.profiles.mu.Lock()
		defer s.profiles.mu.Unlock()
		return ch.ProfileSetStats{Layers: len(s.profiles.states)}
	}
	return s.profiles.layers.Stats()
}

// ProfileGraph returns the reweighted graph the named profile is served
// from, building the profile state if needed. Experiments use it as the
// reference metric for verifying profile query answers.
func (s *Server) ProfileGraph(name string) (*roadnet.Graph, error) {
	if s.profiles == nil {
		return nil, fmt.Errorf("server: no profiles configured")
	}
	st, err := s.profiles.state(name)
	if err != nil {
		return nil, err
	}
	return st.graph, nil
}

package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"opaque/internal/gen"
	"opaque/internal/roadnet"
)

// sample is one client request as the generator saw it. Times are
// nanoseconds since the recorder's base; due is when the schedule wanted the
// request sent (the send time itself in the closed loop).
type sample struct {
	trip            gen.QueryPair
	due, sent, done int64
	cost            float64
	path            []roadnet.NodeID
	err             string // transport error or the obfuscator's error; "" when served
	wrong           bool   // set by verification
}

func (s *sample) latency() time.Duration { return time.Duration(s.done - s.due) }

// ok reports whether the request was served and its reply verified.
func (s *sample) ok() bool { return s.err == "" && !s.wrong }

// generator drives client requests over the stack's one client connection.
type generator struct {
	st    *stack
	trips *tripSource
	next  atomic.Uint64 // request number, which also selects the trip
}

func (gn *generator) issue(k uint64, due int64) sample {
	rec := gn.st.rec
	s := sample{trip: gn.trips.trip(k), due: due}
	s.sent = rec.now()
	reply, err := gn.st.ask(k, s.trip)
	s.done = rec.now()
	switch {
	case err != nil:
		s.err = err.Error()
	case reply.Error != "":
		s.err = reply.Error
	case !reply.Found:
		s.err = "no path found"
	default:
		s.cost, s.path = reply.Cost, reply.Path
	}
	return s
}

// openLoop sends requests on a fixed schedule of rate per second for d,
// each on its own goroutine so a slow reply never delays later sends.
func (gn *generator) openLoop(d time.Duration, rate float64) []sample {
	n := int(d.Seconds()*rate + 0.5)
	out := make([]sample, n)
	period := float64(time.Second) / rate
	k0 := gn.next.Add(uint64(n)) - uint64(n)
	rec := gn.st.rec
	start := rec.now() + int64(time.Millisecond)
	var wg sync.WaitGroup
	for i := range out {
		due := start + int64(float64(i)*period)
		if wait := due - rec.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		wg.Add(1)
		go func(i int, due int64) {
			defer wg.Done()
			out[i] = gn.issue(k0+uint64(i), due)
		}(i, due)
	}
	wg.Wait()
	return out
}

// closedLoop keeps outstanding requests in flight for d and returns every
// sample with the phase's end time; requests still in flight at the end
// finish but count only toward verification.
func (gn *generator) closedLoop(d time.Duration, outstanding int) ([]sample, int64) {
	rec := gn.st.rec
	end := rec.now() + int64(d)
	per := make([][]sample, outstanding)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rec.now() < end {
				per[w] = append(per[w], gn.issue(gn.next.Add(1), rec.now()))
			}
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, end
}

// hotArc is one arc of the weight stream's pool with its fixture cost.
type hotArc struct {
	from, to roadnet.NodeID
	base     float64
}

// maxHotFactor bounds how far the weight stream raises a hot arc: updates
// only ever raise costs, to between 1× and maxHotFactor× the fixture cost,
// so every distance under churn lies between the fixture distance and the
// walk's cost with every hot arc at its maximum.
const maxHotFactor = 3

// hotArcPool picks n arcs of a congested district: out-arcs of the nodes
// nearest the map's centre that stay inside the centre's partition cell,
// away from its boundary. Live traffic incidents are local, and an update
// confined to one cell's interior re-customizes that cell alone, which keeps
// the re-customization bursts the shards run beside queries short.
func hotArcPool(g *roadnet.Graph, part *roadnet.Partition, n int) []hotArc {
	minX, minY, maxX, maxY := g.Bounds()
	cx, cy := (minX+maxX)/2, (minY+maxY)/2
	nodes := make([]roadnet.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = roadnet.NodeID(i)
	}
	dist := func(v roadnet.NodeID) float64 {
		nd := g.Node(v)
		return (nd.X-cx)*(nd.X-cx) + (nd.Y-cy)*(nd.Y-cy)
	}
	sort.Slice(nodes, func(i, j int) bool { return dist(nodes[i]) < dist(nodes[j]) })
	cell := part.CellOf(nodes[0])
	interior := func(v roadnet.NodeID) bool { return part.CellOf(v) == cell && !part.IsBoundary(v) }
	pool := make([]hotArc, 0, n)
	for _, v := range nodes {
		if len(pool) == n {
			break
		}
		if !interior(v) {
			continue
		}
		for _, a := range g.Arcs(v) {
			if interior(a.To) {
				pool = append(pool, hotArc{from: v, to: a.To, base: a.Cost})
				break
			}
		}
	}
	return pool
}

// updateSample is one weight update: its due time, when UpdateWeights
// returned (the quorum ack), and when every shard's overlay was fresh again
// (0 when not polled).
type updateSample struct {
	due, acked, fresh int64
	err               error
}

// updater streams weight updates through Router.UpdateWeights on a fixed
// schedule until stopped.
type updater struct {
	st   *stack
	pool []hotArc
	seed uint64

	stop, done chan struct{}
	polls      sync.WaitGroup

	mu      sync.Mutex
	samples []updateSample
}

func startUpdater(st *stack, seed uint64) *updater {
	u := &updater{
		st: st, pool: hotArcPool(st.g, st.part, hotArcs), seed: seed,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	go u.run()
	return u
}

// changes returns update i: arcs distinct hot arcs, each raised to a seeded
// factor of its fixture cost.
func (u *updater) changes(i uint64) []roadnet.ArcWeightChange {
	n := min(updateArcs, len(u.pool))
	picked := make(map[int]bool, n)
	out := make([]roadnet.ArcWeightChange, 0, n)
	for j := uint64(0); len(out) < n; j++ {
		h := splitmix(u.seed ^ splitmix(i<<16|j))
		a := int(h % uint64(len(u.pool)))
		if picked[a] {
			continue
		}
		picked[a] = true
		f := 1 + (maxHotFactor-1)*float64(splitmix(h)>>11)/(1<<53)
		out = append(out, roadnet.ArcWeightChange{From: u.pool[a].from, To: u.pool[a].to, NewCost: u.pool[a].base * f})
	}
	return out
}

func (u *updater) run() {
	defer close(u.done)
	rec := u.st.rec
	period := float64(time.Second) / u.st.sp.updateRate
	start := rec.now()
	for i := uint64(0); ; i++ {
		// Each update lands at a seeded random point of its own period: a
		// strictly periodic stream would lock into one phase against the
		// periodic query schedule for a whole run, and whether updates meet
		// scattered queries in flight would then differ from run to run.
		jitter := float64(splitmix(u.seed^splitmix(^i))>>11) / (1 << 53)
		due := start + int64((float64(i)+jitter)*period)
		timer := time.NewTimer(time.Duration(due - rec.now()))
		select {
		case <-u.stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		changes := u.changes(i)
		t0 := rec.now()
		err := u.st.router.UpdateWeights(changes)
		acked := rec.now()
		tracing := rec.tracing.Load()
		if tracing {
			rec.add(span{layer: layerUpdate, start: t0, end: acked})
		}
		u.mu.Lock()
		idx := len(u.samples)
		u.samples = append(u.samples, updateSample{due: due, acked: acked, err: err})
		u.mu.Unlock()
		if tracing && err == nil {
			u.polls.Add(1)
			go u.pollFresh(idx)
		}
	}
}

// pollFresh records when every shard's overlay first matches its graph
// again after update idx was acknowledged.
func (u *updater) pollFresh(idx int) {
	defer u.polls.Done()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if u.st.allFresh() {
			u.mu.Lock()
			u.samples[idx].fresh = u.st.rec.now()
			u.mu.Unlock()
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// halt stops the stream and waits for it and its pollers, returning every
// update sent.
func (u *updater) halt() []updateSample {
	close(u.stop)
	<-u.done
	u.polls.Wait()
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.samples
}

func (st *stack) allFresh() bool {
	for _, srv := range st.servers {
		if !srv.OverlayFresh() {
			return false
		}
	}
	return true
}

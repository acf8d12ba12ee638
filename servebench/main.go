// Command servebench times obfuscated directions requests end to end through
// the stack that serves them — a client connection, the obfuscator service,
// and a directions search server or a fleet router in front of shard
// servers, every hop a loopback TCP connection in one process — and splits
// that time into the layers it crosses.
//
//	servebench -workload paper-shared -seed 1 -seconds 25 -trace 0
//
// Each run sets the stack up several times (setup_s is the median), warms it,
// drives an open-loop phase at a fixed rate and then a closed-loop saturation
// phase, verifies every reply against reference Dijkstra off the clock, and
// prints every metric by name and unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// -trace 1 the closed loop is replaced by a second, traced open-loop phase
// and the metrics are the per-layer ones. The process exits 1 when any
// request failed, was answered wrongly or reached the server with fewer
// endpoints than the privacy floor fS, fT demands.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name: "+workloadNames())
		seed     = flag.Uint64("seed", 1, "workload seed: trips and the weight stream derive from it")
		seconds  = flag.Float64("seconds", 25, "measured seconds (open plus closed loop)")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
		outDir   = flag.String("out", "", "directory for the result and span files (empty: none written)")
	)
	flag.Parse()
	sp, err := specByName(*workload)
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("-seconds must be positive")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	o := options{seconds: *seconds, seed: *seed, trace: *trace == 1, setups: 3, setupBudget: 10 * time.Second, warm: 4 * time.Second, outDir: *outDir}
	if o.trace {
		// Set-up time is an end-to-end metric; traced runs skip the repeats.
		o.setups, o.setupBudget = 1, 0
	}
	res, err := run(sp, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return strings.Join(names, " | ")
}

// options are one run's settings.
type options struct {
	seconds float64
	seed    uint64
	trace   bool
	// The stack is set up at least setups times, and again while the
	// set-ups so far took less than setupBudget, up to maxSetups: a quick
	// set-up is repeated more, so its median holds on a noisy host.
	setups      int
	setupBudget time.Duration
	warm        time.Duration
	outDir      string
	// Self-test fault injection (see recorder).
	corruptSourcesAt, corruptCostAt int64
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// result is everything one run reports.
type result struct {
	correct           bool
	attempted, failed int
	errored, wrong    int
	privacy           int64
	metrics           []metric
	// shown are printed in the report but left out of the JSON line: the
	// tail latency, which swings between runs of one build by more than any
	// bound could hold, and the error ratio and update latency, which are
	// zero or undefined on some workloads.
	shown []metric
	notes []string
	prov  map[string]any
	// stageFaults are the ways a traced run's stages fail to account for
	// its end-to-end latency (see stageAccount); empty when they do.
	stageFaults []string
}

func (r *result) add(name, unit string, v float64) {
	if v != v { // NaN: nothing was measured
		v = 0
	}
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable report, the provenance line and, last,
// the one-line JSON result.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "servebench %v seed %v trace %v\n", r.prov["workload"], r.prov["seed"], r.prov["trace"])
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.name, m.value, m.unit)
	}
	for _, m := range r.shown {
		fmt.Fprintf(w, "  %-36s %14.4f %s (not in the JSON line)\n", m.name, m.value, m.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	prov, _ := json.Marshal(map[string]any{"provenance": r.prov})
	fmt.Fprintf(w, "%s\n", prov)
	out, _ := json.Marshal(r.jsonResult())
	fmt.Fprintf(w, "%s\n", out)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) jsonResult() jsonResult {
	return jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: metricsJSON(r.metrics)}
}

func metricsJSON(ms []metric) map[string]jsonMetric {
	out := make(map[string]jsonMetric, len(ms))
	for _, m := range ms {
		out[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return out
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// quantileSorted returns the q-quantile of sorted xs by linear
// interpolation between closest ranks, NaN when empty.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// msQuantiles returns the q-quantiles of ds in milliseconds.
func msQuantiles(ds []time.Duration, qs ...float64) []float64 {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = float64(d) / 1e6
	}
	sort.Float64s(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantileSorted(s, q)
	}
	return out
}

func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / 1e6
}

// run performs one benchmark run of workload sp.
func run(sp spec, o options) (*result, error) {
	res := &result{prov: provenance(sp, o)}

	// Set up several times; setup_s is the median. The last stack serves.
	var setups []float64
	var spent time.Duration
	var st *stack
	for len(setups) < o.setups || (len(setups) < maxSetups && spent < o.setupBudget) {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if st, err = buildStack(sp); err != nil {
			return nil, fmt.Errorf("setting up %s: %w", sp.name, err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer st.close()
	st.rec.corruptSourcesAt = o.corruptSourcesAt
	st.rec.corruptCostAt = o.corruptCostAt

	trips, err := newTripSource(st.g, sp, o.seed)
	if err != nil {
		return nil, fmt.Errorf("generating trips: %w", err)
	}
	gn := &generator{st: st, trips: trips}
	openDur := time.Duration(o.seconds * openShare * float64(time.Second))
	closedDur := time.Duration(o.seconds*float64(time.Second)) - openDur

	// The weight stream (fleet-churn) runs beside the closed loop, and in
	// traced runs beside both open loops. The untraced open loop, whose
	// latency and CPU cost are gated, runs without it: under the stream a
	// run's latency depends on how many requests meet a stale overlay or a
	// skewed merge, and that share swings between runs far more than any
	// bound could hold. Its latency effect is reported per layer.
	var up *updater
	churnFrom := int64(math.MaxInt64) // when the stream started
	startChurn := func() {
		if sp.stack == stackFleet && up == nil {
			churnFrom = st.rec.now()
			up = startUpdater(st, o.seed)
			time.Sleep(churnWarm) // the first re-customization runs a full pass
		}
	}
	if o.trace {
		startChurn()
	}

	warm := gn.openLoop(o.warm, sp.openRate)
	var ph phases
	ph.open.from = st.rec.now()
	cpu0 := cpuTime()
	ph.open.samples = gn.openLoop(openDur, sp.openRate)
	cpuOpen := cpuTime() - cpu0
	ph.open.to = st.rec.now()
	if o.trace {
		before := takeSnapshot(st)
		st.rec.inflightMax.Store(0)
		st.rec.minShardPairs.Store(math.MaxInt64)
		st.rec.tracing.Store(true)
		ph.traced.from = st.rec.now()
		ph.traced.samples = gn.openLoop(openDur, sp.openRate)
		ph.traced.to = st.rec.now()
		st.rec.tracing.Store(false)
		ph.before, ph.after = before, takeSnapshot(st)
		ph.spans, ph.batches = st.rec.take()
	} else {
		startChurn()
		ph.closed.from = st.rec.now()
		ph.closed.samples, ph.closed.to = gn.closedLoop(closedDur, sp.outstanding)
	}

	// Quiesce the weight stream, then check a seeded sample exactly on the
	// metric every shard converged to.
	var post []sample
	var ups []updateSample
	if up != nil {
		ups = up.halt()
		deadline := time.Now().Add(30 * time.Second)
		for !st.allFresh() {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("overlays still stale 30 s after the weight stream stopped")
			}
			time.Sleep(time.Millisecond)
		}
		for i := 0; i < 32; i++ {
			post = append(post, gn.issue(gn.next.Add(1), st.rec.now()))
		}
	}
	rss := maxRSSMB()

	// Verification, off the clock: replies answered before the weight stream
	// started are checked exactly on the fixture map, those answered beside
	// it within the stream's cost bounds, and the post-quiesce sample exactly
	// on the metric every shard converged to.
	var exact, churned []*sample
	for _, set := range [][]sample{warm, ph.open.samples, ph.closed.samples, ph.traced.samples} {
		for i := range set {
			if set[i].sent >= churnFrom {
				churned = append(churned, &set[i])
			} else {
				exact = append(exact, &set[i])
			}
		}
	}
	if err := verifyExact(st.g, exact); err != nil {
		return nil, err
	}
	if up != nil {
		if err := verifyUnderChurn(st.g, up.pool, churned); err != nil {
			return nil, err
		}
		final := st.servers[0].Graph()
		for _, srv := range st.servers[1:] {
			if srv.Graph().ContentChecksum() != final.ContentChecksum() {
				return nil, fmt.Errorf("shards converged to different metrics")
			}
		}
		var postPtrs []*sample
		for i := range post {
			postPtrs = append(postPtrs, &post[i])
		}
		if err := verifyExact(final, postPtrs); err != nil {
			return nil, err
		}
		churned = append(churned, postPtrs...)
		for _, u := range ups {
			res.attempted++
			if u.err != nil {
				res.errored++
			}
		}
	}
	for _, s := range append(exact, churned...) {
		res.attempted++
		switch {
		case s.err != "":
			res.errored++
		case s.wrong:
			res.wrong++
		}
	}
	res.privacy = st.rec.privacyViolations.Load()
	res.failed = res.errored + res.wrong + int(res.privacy)
	res.correct = res.failed == 0
	res.shown = append(res.shown, metric{name: "err_ratio", unit: "ratio", value: ratio(float64(res.failed), float64(res.attempted))})
	if up != nil {
		acks := make([]time.Duration, len(ups))
		for i, u := range ups {
			acks[i] = time.Duration(u.acked - u.due)
		}
		res.shown = append(res.shown, metric{name: "update_p50_ms", unit: "ms", value: msQuantiles(acks, 0.5)[0]})
	}

	if o.trace {
		tr := linkTrace(&ph)
		reportLayers(res, st, &ph, tr, ups)
		if err := writeSpans(o, sp, &ph, tr); err != nil {
			return nil, err
		}
	} else {
		reportEndToEnd(res, &ph, setups, cpuOpen, rss)
	}
	res.note("attempted %d, failed %d (%d errors, %d wrong replies, %d privacy-floor violations)",
		res.attempted, res.failed, res.errored, res.wrong, res.privacy)
	if err := writeResult(o, sp, res); err != nil {
		return nil, err
	}
	return res, nil
}

// phase is one measured stretch of traffic.
type phase struct {
	from, to int64
	samples  []sample
}

type phases struct {
	open, closed, traced phase
	before, after        snapshot
	spans                []span
	batches              []execBatch
}

// maxSetups caps the set-ups of one run.
const maxSetups = 15

// churnWarm is how long the weight stream runs before traffic is measured
// beside it.
const churnWarm = time.Second

func reportEndToEnd(res *result, ph *phases, setups []float64, cpuOpen time.Duration, rss float64) {
	lat := make([]time.Duration, len(ph.open.samples))
	for i := range ph.open.samples {
		lat[i] = ph.open.samples[i].latency()
	}

	served := 0
	for i := range ph.closed.samples {
		if s := &ph.closed.samples[i]; s.ok() && s.done <= ph.closed.to {
			served++
		}
	}

	res.add("setup_s", "s", median(setups))
	res.add("lat_p50_ms", "ms", msQuantiles(lat, 0.5)[0])
	res.add("sat_rps", "1/s", float64(served)/(float64(ph.closed.to-ph.closed.from)/1e9))
	res.add("cpu_ms_per_req", "ms", float64(cpuOpen)/1e6/float64(len(ph.open.samples)))
	res.add("max_rss_mb", "MiB", rss)
	res.shown = append(res.shown, metric{name: "lat_p99_ms", unit: "ms", value: msQuantiles(lat, 0.99)[0]})
	res.note("setup_s is the median of %d set-ups: %.3f", len(setups), setups)
	res.note("open loop: %d requests timed from their due time", len(lat))
	res.note("closed loop: %d requests, %d served correctly within the phase", len(ph.closed.samples), served)
}

func provenance(sp spec, o options) map[string]any {
	p := map[string]any{
		"workload":    sp.name,
		"seed":        o.seed,
		"trace":       o.trace,
		"seconds":     o.seconds,
		"go":          runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"commit":      "unknown",
		"map_nodes":   sp.nodes,
		"map_seed":    sp.mapSeed,
		"fs":          sp.fs,
		"ft":          sp.ft,
		"open_rate":   sp.openRate,
		"outstanding": sp.outstanding,
		"open_share":  openShare,
		"window_ms":   float64(sp.window()) / 1e6,
		"min_setups":  o.setups,
	}
	if sp.stack == stackFleet {
		p["cells"], p["shards"] = sp.cells, fleetShards
		p["update_rate"], p["update_arcs"] = sp.updateRate, updateArcs
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["commit_modified"] = s.Value
			}
		}
	}
	return p
}

// writeResult stores the run's result line, the metrics left out of it,
// notes and provenance as one JSON file.
func writeResult(o options, sp spec, res *result) error {
	if o.outDir == "" {
		return nil
	}
	data, err := json.MarshalIndent(struct {
		jsonResult
		NotGated   map[string]jsonMetric `json:"not_gated"`
		Notes      []string              `json:"notes"`
		Provenance map[string]any        `json:"provenance"`
	}{res.jsonResult(), metricsJSON(res.shown), res.notes, res.prov}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", sp.name, o.seed, btoi(o.trace))
	return os.WriteFile(filepath.Join(o.outDir, name), data, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

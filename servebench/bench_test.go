package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// contractMetrics reads the metric names BENCHMARK.json promises.
func contractMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
		Workload []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	if len(b.Workload) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workload), len(specs))
	}
	for i, w := range b.Workload {
		if _, err := specByName(w.Name); err != nil {
			t.Errorf("workload %d: %v", i, err)
		}
	}
	return endToEnd, perLayer
}

func (r *result) metric(name string) (float64, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

func tinyOptions(trace bool) options {
	return options{seconds: 1, seed: 7, trace: trace, setups: 1, warm: 300 * time.Millisecond}
}

// TestTinyWorkloads runs every workload at tiny scale, untraced and traced,
// and checks that each run is correct, reports exactly the metrics
// BENCHMARK.json names, and that the traced stages account for the traced
// end-to-end mean.
func TestTinyWorkloads(t *testing.T) {
	endToEnd, perLayer := contractMetrics(t)
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			res, err := run(sp.tiny(), tinyOptions(trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, trace, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", sp.name, trace, res.correct, res.failed, res.attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", sp.name, trace, len(res.metrics), len(want))
			}
			for _, name := range want {
				if _, ok := res.metric(name); !ok {
					t.Errorf("%s trace=%v: metric %s missing", sp.name, trace, name)
				}
			}
			if !trace {
				continue
			}
			checkRoutes(t, sp.name, res)
			for _, f := range res.stageFaults {
				t.Errorf("%s: stage accounting: %s", sp.name, f)
			}
		}
	}
}

// checkRoutes asserts that each workload's queries took the route it was
// built to exercise.
func checkRoutes(t *testing.T, name string, res *result) {
	t.Helper()
	count := func(metric string) float64 {
		v, _ := res.metric(metric)
		return v
	}
	ch, mtm, fallback := count("server.ch_queries"), count("server.mtm_queries"), count("server.fallback_queries")
	stale := count("server.overlay_stale_queries")
	t.Logf("%s: routes ch=%v mtm=%v fallback=%v stale=%v", name, ch, mtm, fallback, stale)
	var ok bool
	switch name {
	case "paper-shared":
		ok = fallback > 0 && ch == 0 && mtm == 0
	case "hybrid-wide":
		ok = mtm > 0 && ch == 0 && fallback == 0
	case "fleet-churn":
		ok = ch > 0 && mtm == 0 && stale > 0 && count("fleet.subqueries_per_query") >= 1
	}
	if !ok {
		t.Errorf("%s: routes ch=%v mtm=%v fallback=%v stale=%v", name, ch, mtm, fallback, stale)
	}
}

// TestStageAccountFaults checks that every stage-accounting check fails on
// its own stage: obfuscation too large for the time before the executor,
// obfuscation too small (or a wrong window) for the typical wait, and a
// filter or reply hop that does not match the time after the executor.
func TestStageAccountFaults(t *testing.T) {
	// A shared-mode account that balances: a 10 ms window, requests waiting
	// half of it, 1 ms of obfuscation, a 4 ms executor and a 0.2 ms reply hop.
	ok := stageAccount{linked: 1, pre: 6, preP50: 5.5, obf: 1, exec: 4, filt: 0.1, e2e: 10.3, window: 10}
	if f := ok.faults(); len(f) != 0 {
		t.Fatalf("balanced account reports faults: %v", f)
	}
	for name, bad := range map[string]func(a *stageAccount){
		"obfuscation larger than the pre-executor time": func(a *stageAccount) { a.obf = 7 },
		"wait beyond the window":                        func(a *stageAccount) { a.window = 1 },
		"obfuscation figure too small":                  func(a *stageAccount) { a.window, a.pre, a.preP50, a.e2e = 0, 3, 3, 7.3 },
		"reply hop unaccounted":                         func(a *stageAccount) { a.e2e = 14 },
		"filter larger than the post-executor time":     func(a *stageAccount) { a.filt = 2 },
		"requests not linked":                           func(a *stageAccount) { a.linked = 0.9 },
	} {
		a := ok
		bad(&a)
		if len(a.faults()) == 0 {
			t.Errorf("%s: no fault reported for %+v", name, a)
		}
	}
}

// TestFaultsCountAsFailures corrupts one reply's costs and cuts one query's
// source set below fS at the executor seam: the first must be caught as a
// wrong reply, the second as a privacy-floor violation at the server.
func TestFaultsCountAsFailures(t *testing.T) {
	sp, err := specByName("hybrid-wide")
	if err != nil {
		t.Fatal(err)
	}
	o := tinyOptions(false)
	o.corruptSourcesAt, o.corruptCostAt = 3, 5
	res, err := run(sp.tiny(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.privacy != 1 {
		t.Errorf("privacy-floor violations = %d, want 1", res.privacy)
	}
	if res.wrong < 1 {
		t.Errorf("wrong replies = %d, want at least 1", res.wrong)
	}
	if res.correct || res.failed < 2 {
		t.Errorf("correct=%v failed=%d, want an incorrect run with at least 2 failures", res.correct, res.failed)
	}
}

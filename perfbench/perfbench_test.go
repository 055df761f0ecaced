package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// Seeds of the determinism self-test: devSeed is the seed the workloads
// were tuned on, heldOutSeed one that was not used while tuning.
const (
	devSeed     = 1
	heldOutSeed = 20261017
)

// tinyWorkloads are the three workloads at a size that runs in seconds.
func tinyWorkloads() []workload {
	return []workload{
		{name: "kv-read", run: func(seed uint64, traced bool, m *meter) error {
			return runKV(kvReadConfig(true), seed, traced, m)
		}},
		{name: "kv-write", run: func(seed uint64, traced bool, m *meter) error {
			return runKV(kvWriteConfig(true), seed, traced, m)
		}},
		{name: "device-rw", run: func(seed uint64, traced bool, m *meter) error {
			return runDevice(deviceRWConfig(true), seed, traced, m)
		}},
	}
}

func episodeOf(t *testing.T, w workload, seed uint64, traced bool) *episode {
	t.Helper()
	ep, err := runEpisode(w, seed, traced, nil)
	if err != nil {
		t.Fatalf("seed %d traced=%v: %v", seed, traced, err)
	}
	for _, p := range ep.problems {
		t.Errorf("seed %d traced=%v: %s", seed, traced, p)
	}
	return ep
}

// TestDeterminism runs each workload twice with one seed and requires
// byte-identical virtual metrics, once traced and requires the same
// end-to-end metrics, and once with a held-out seed that must still pass
// the correctness gate and premise guards.
func TestDeterminism(t *testing.T) {
	for _, w := range tinyWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			a := episodeOf(t, w, devSeed, false)
			b := episodeOf(t, w, devSeed, false)
			if x, y := fmtMetrics(a.virt)+fmtMetrics(a.layer), fmtMetrics(b.virt)+fmtMetrics(b.layer); x != y {
				t.Errorf("same seed, different virtual metrics:\n%s\n%s", x, y)
			}
			if a.events != b.events || a.attempted != b.attempted {
				t.Errorf("same seed: %d/%d events, %d/%d requests", a.events, b.events, a.attempted, b.attempted)
			}
			traced := episodeOf(t, w, devSeed, true)
			if x, y := fmtMetrics(a.virt), fmtMetrics(traced.virt); x != y {
				t.Errorf("tracing changed virtual metrics:\n%s\n%s", x, y)
			}
			held := episodeOf(t, w, heldOutSeed, false)
			if fmtMetrics(held.virt) == fmtMetrics(a.virt) {
				t.Errorf("held-out seed reproduced the development seed's metrics exactly")
			}
		})
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/btree.(*Tree).Get":      "btree",
		"repro/internal/sim.(*Engine).Go.func1": "sim",
		"repro/internal/experiments.E1":         "other",
		"main.(*kvLoad).issue":                  "bench",
		"runtime.mallocgc":                      "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestPageOK(t *testing.T) {
	const size = 4096
	page := devPage(7, 42, 3, size)
	if !pageOK(7, 42, 3, page, size) {
		t.Fatal("a page does not check against its own version")
	}
	if pageOK(7, 42, 2, page, size) || pageOK(7, 41, 3, page, size) || pageOK(7, 42, 0, page, size) {
		t.Error("a page checks against another LPN or version")
	}
	page[size-8] ^= 1 // inside the last filler word (bytes 4084-4091)
	if pageOK(7, 42, 3, page, size) {
		t.Error("a page with a corrupted last word still checks")
	}
	if !pageOK(7, 42, 0, nil, size) {
		t.Error("an unwritten page does not check against version 0")
	}
}

// TestProblemsOfEveryEpisode checks that a run reports a check that
// fails on a later repetition even when the first one passed.
func TestProblemsOfEveryEpisode(t *testing.T) {
	eps := []*episode{{}, {problems: []string{"lost"}}, {problems: []string{"lost"}}}
	if got := problemsOf(eps); len(got) != 1 || got[0] != "episode 1: lost" {
		t.Errorf("problemsOf = %q, want the later episode's failure once", got)
	}
}

func TestQuantileNeedsTail(t *testing.T) {
	l := make(latencies, 999)
	if _, err := l.quantile("x", 0.99); err == nil {
		t.Error("p99 of 999 samples leaves 9.99 beyond it, want an error")
	}
	l = append(l, 0)
	if _, err := l.quantile("x", 0.99); err != nil {
		t.Errorf("p99 of 1000 samples: %v", err)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the
// workloads and metrics this program runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run", w.Name)
		}
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit, Better string }
		code []metricSpec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", c.what, len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if got := (metricSpec{m.Name, m.Unit, m.Better}); got != c.code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the program %v", c.what, i, got, c.code[i])
			}
		}
	}
}

// TestRunsReportListedMetrics runs the plain and traced modes on each
// tiny workload: both must pass their checks and report exactly the
// listed metrics.
func TestRunsReportListedMetrics(t *testing.T) {
	for _, w := range tinyWorkloads() {
		for _, run := range []func(workload, uint64, time.Duration) (result, error){plainRun, tracedRun} {
			res, err := run(w, devSeed, 0)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d", w.name, res.Correct, res.Attempted)
			}
		}
	}
}

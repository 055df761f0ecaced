// Command perfbench is the repository's two-clock benchmark. It builds
// a storage stack from the public constructors, generates every request
// itself from --seed, drives the stack through its public entry points
// and steps the simulation engine itself, so events are counted from
// outside the program.
//
// Each run repeats one deterministic episode (set-up, timed window,
// correctness checks) for --seconds of host time. Virtual-time metrics
// come from the simulated clock and must be identical on every
// repetition; host metrics (CPU time in reference seconds, see ref.go,
// and allocations) are medians over the repetitions. With --trace 1 the
// run alternates untraced and traced episodes, profiles the traced
// windows, and reports per-layer metrics instead of end-to-end ones.
//
//	bash perfbench/run.sh --workload kv-read --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero
// when a correctness gate or premise guard fails.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/sim"
)

// workload is one named benchmark workload.
type workload struct {
	name string
	// run executes one episode with the given seed into m.ep. traced
	// turns on the program's own tracing and profiling; m takes the
	// host measurements.
	run func(seed uint64, traced bool, m *meter) error
}

// episode is the outcome of one deterministic pass of a workload.
type episode struct {
	// virt holds the virtual-time end-to-end metrics; they depend only
	// on the seed.
	virt map[string]float64
	// layer holds virtual per-layer metrics; keys that need tracing are
	// present only on traced episodes.
	layer map[string]float64
	// info holds values the report prints but the result line omits.
	info map[string]metric
	// samples counts the latency samples behind each latency metric.
	samples map[string]int

	attempted, failed int64
	served            int64 // requests served inside the window
	events            int64 // engine events stepped inside the window
	lost              int64 // acknowledged writes that did not read back

	setup, window       time.Duration // process CPU time
	refNs               []float64     // reference chase ns per step, around the episode
	mallocs, allocBytes uint64

	// problems lists failed correctness gates and premise guards.
	problems []string
}

func (e *episode) fail(format string, args ...any) {
	e.problems = append(e.problems, fmt.Sprintf(format, args...))
}

// meter takes the host-time measurements of one episode. Host time is
// the process's CPU time, not wall time: the kernel leaves out time the
// hypervisor gave to other guests (steal) and time other processes ran,
// which on a shared machine otherwise swamps the program's own cost.
type meter struct {
	prof *hostProfile // nil when the window is not profiled
	ep   *episode

	t0 time.Duration
	ms runtime.MemStats
}

// setupBegin starts the set-up from a freshly collected heap, so no
// garbage of an earlier episode is collected on its time.
func (m *meter) setupBegin() {
	runtime.GC()
	m.t0 = cpuNow()
}

func (m *meter) setupEnd() { m.ep.setup = cpuNow() - m.t0 }

// cpuNow reads the CPU time the process has used so far.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", e))
	}
	return time.Duration(ts.Nano())
}

// windowBegin starts the timed window from a freshly collected heap.
func (m *meter) windowBegin() error {
	runtime.GC()
	if m.prof != nil {
		if err := m.prof.start(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m.ms)
	m.t0 = cpuNow()
	return nil
}

func (m *meter) windowEnd() error {
	m.ep.window = cpuNow() - m.t0
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	m.ep.mallocs = end.Mallocs - m.ms.Mallocs
	m.ep.allocBytes = end.TotalAlloc - m.ms.TotalAlloc
	if m.prof != nil {
		return m.prof.stop()
	}
	return nil
}

// stepUntil steps eng until *done is set, returning the events run. It
// fails if the engine runs out of events first.
func stepUntil(eng *sim.Engine, done *bool) (int64, error) {
	var n int64
	for !*done {
		if !eng.Step() {
			return n, errors.New("engine drained before the phase finished")
		}
		n++
	}
	return n, nil
}

// runProc runs fn as a simulated process and steps the engine until it
// returns.
func runProc(eng *sim.Engine, fn func(p *sim.Proc) error) error {
	done := false
	var ferr error
	eng.Go(func(p *sim.Proc) {
		ferr = fn(p)
		done = true
	})
	if _, err := stepUntil(eng, &done); err != nil {
		return err
	}
	return ferr
}

var workloads = map[string]workload{
	"kv-read":   {name: "kv-read", run: runKVRead},
	"kv-write":  {name: "kv-write", run: runKVWrite},
	"device-rw": {name: "device-rw", run: runDeviceRW},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: kv-read, kv-write or device-rw")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "host seconds to keep repeating the episode")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	// The engine runs on one goroutine at a time: simulated processes
	// hand control to each other. One P keeps those handoffs on one
	// thread, so no wakeup crosses CPUs and the garbage collector shares
	// the benchmark's CPU rather than racing it for the machine's other.
	runtime.GOMAXPROCS(1)

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(w, *seed, budget)
	} else {
		res, err = plainRun(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// minEpisodes is the fewest repetitions a run makes, so host medians
// and the repeat-determinism check always have something to compare.
const minEpisodes = 3

// plainRun repeats untraced episodes for the budget and reports the
// end-to-end metrics.
func plainRun(w workload, seed uint64, budget time.Duration) (result, error) {
	start := time.Now()
	var eps []*episode
	for len(eps) < minEpisodes || time.Since(start) < budget {
		ep, err := runEpisode(w, seed, false, nil)
		if err != nil {
			return result{}, err
		}
		eps = append(eps, ep)
	}
	first := eps[0]
	problems := append(problemsOf(eps), sameVirtual("repeat", eps)...)

	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	vals := map[string]float64{}
	for k, v := range first.virt {
		vals[k] = v
	}
	scale := refScale(refMedian(eps))
	opsPerCPUs := medianOf(eps, func(e *episode) float64 {
		return float64(e.served) / e.window.Seconds()
	})
	vals["host_ops_per_ref_s"] = opsPerCPUs / scale
	vals["allocs_per_op"] = medianOf(eps, func(e *episode) float64 {
		return float64(e.mallocs) / float64(e.served)
	})
	vals["alloc_bytes_per_op"] = medianOf(eps, func(e *episode) float64 {
		return float64(e.allocBytes) / float64(e.served)
	})
	vals["peak_rss_mb"] = rss - refTableMB
	vals["setup_s"] = medianOf(eps, func(e *episode) float64 { return refSeconds(e.setup, scale) })
	out, err := tag(vals, endToEnd)
	if err != nil {
		return result{}, err
	}

	first.info["host_ops_per_cpu_s"] = metric{opsPerCPUs, "1/s"}
	first.info["ref_step_ns"] = metric{refMedian(eps), "ns"}
	report(w, seed, eps, out, problems)
	return result{
		Correct:   len(problems) == 0,
		Attempted: first.attempted,
		Failed:    first.failed,
		Metrics:   out,
	}, nil
}

// tracedRun alternates untraced and traced episodes for the budget. The
// traced episodes turn on the program's tracing and profiling and run
// under the host CPU and allocation profilers; their virtual metrics
// must equal the untraced ones exactly.
func tracedRun(w workload, seed uint64, budget time.Duration) (result, error) {
	start := time.Now()
	prof := newHostProfile()
	var plain, traced []*episode
	for len(traced) == 0 || time.Since(start) < budget {
		ep, err := runEpisode(w, seed, false, nil)
		if err != nil {
			return result{}, err
		}
		plain = append(plain, ep)
		if ep, err = runEpisode(w, seed, true, prof); err != nil {
			return result{}, err
		}
		traced = append(traced, ep)
	}
	tep := traced[0]
	all := append(append([]*episode(nil), plain...), traced...)
	problems := append(problemsOf(all), sameVirtual("traced vs untraced", all)...)

	vals := map[string]float64{}
	for k, v := range tep.layer {
		vals[k] = v
	}
	for m, f := range fractions(prof.cpu) {
		vals["host.cpu_frac."+m] = f
	}
	for m, f := range fractions(prof.alloc) {
		vals["host.alloc_frac."+m] = f
	}
	plainNs := medianOf(plain, func(e *episode) float64 { return float64(e.window.Nanoseconds()) })
	tracedNs := medianOf(traced, func(e *episode) float64 { return float64(e.window.Nanoseconds()) })
	vals["sim.events"] = float64(tep.events)
	vals["sim.events_per_op"] = ratio(float64(tep.events), float64(tep.served))
	vals["sim.host_ns_per_event"] = ratio(plainNs, float64(plain[0].events)) * refScale(refMedian(plain))
	vals["trace.host_overhead_frac"] = ratio(tracedNs, plainNs)
	vals["lost_acked_writes"] = float64(tep.lost)
	out, err := tag(vals, perLayer)
	if err != nil {
		return result{}, err
	}

	report(w, seed, traced, out, problems)
	return result{
		Correct:   len(problems) == 0,
		Attempted: tep.attempted,
		Failed:    tep.failed,
		Metrics:   out,
	}, nil
}

// runEpisode runs one episode with a fresh meter.
func runEpisode(w workload, seed uint64, traced bool, prof *hostProfile) (*episode, error) {
	ep := &episode{
		virt:    map[string]float64{},
		layer:   map[string]float64{},
		info:    map[string]metric{},
		samples: map[string]int{},
	}
	if refTable == nil {
		if err := initRef(); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	ep.refNs = append(ep.refNs, refStep())
	if err := w.run(seed, traced, &meter{prof: prof, ep: ep}); err != nil {
		return nil, err
	}
	// Time the reference for about a tenth of the episode, so every
	// workload samples the machine's speed as often.
	for target, t0 := time.Since(start)/10, time.Now(); len(ep.refNs) < 2 || time.Since(t0) < target; {
		ep.refNs = append(ep.refNs, refStep())
	}
	if ep.served == 0 || ep.window <= 0 {
		return nil, errors.New("episode served nothing")
	}
	return ep, nil
}

// problemsOf collects the failed checks of every episode, each distinct
// message once, so a repetition that fails is never hidden by one that
// passed.
func problemsOf(eps []*episode) []string {
	seen := map[string]bool{}
	var out []string
	for i, e := range eps {
		for _, p := range e.problems {
			if !seen[p] {
				seen[p] = true
				out = append(out, fmt.Sprintf("episode %d: %s", i, p))
			}
		}
	}
	return out
}

// sameVirtual checks that every episode reproduced the first one's
// virtual end-to-end metrics exactly.
func sameVirtual(what string, eps []*episode) []string {
	want := fmtMetrics(eps[0].virt)
	var out []string
	for i, e := range eps[1:] {
		if got := fmtMetrics(e.virt); got != want {
			out = append(out, fmt.Sprintf("%s: episode %d virtual metrics differ:\n  %s\n  %s", what, i+1, want, got))
		}
	}
	return out
}

func fmtMetrics(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s ", k, strconv.FormatFloat(m[k], 'g', -1, 64))
	}
	return b.String()
}

// refMedian is the median reference step time over the episodes.
func refMedian(eps []*episode) float64 {
	var xs []float64
	for _, e := range eps {
		xs = append(xs, e.refNs...)
	}
	return median(xs)
}

func medianOf(eps []*episode, f func(*episode) float64) float64 {
	xs := make([]float64, len(eps))
	for i, e := range eps {
		xs[i] = f(e)
	}
	return median(xs)
}

// report prints a human-readable summary of the run ahead of the JSON
// result line.
func report(w workload, seed uint64, eps []*episode, out map[string]metric, problems []string) {
	e := eps[0]
	fmt.Printf("perfbench %s seed=%d episodes=%d attempted=%d failed=%d lost_acked_writes=%d\n",
		w.name, seed, len(eps), e.attempted, e.failed, e.lost)
	all := map[string]metric{
		"failed_frac":  {ratio(float64(e.failed), float64(e.attempted)), "frac"},
		"recovery_vms": {e.layer["recovery_vms"], "ms"},
	}
	for k, v := range e.info {
		all[k] = v
	}
	for k, v := range out {
		all[k] = v
	}
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		line := fmt.Sprintf("  %-40s %14.6g %s", k, all[k].Value, all[k].Unit)
		if n, ok := e.samples[k]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line)
	}
	for _, p := range problems {
		fmt.Printf("  FAIL %s\n", p)
	}
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak rss: no VmHWM in /proc/self/status")
}

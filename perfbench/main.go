// Command perfbench is the repository benchmark. It runs one of four
// workloads against the public APIs of platform, msg, simdag, surf/core
// and sweep for a fixed wall-clock budget, checks every simulated
// result, and prints a human-readable report followed by one JSON line
// with the end-to-end metrics (or, with --trace 1, the per-layer
// metrics):
//
//	bash perfbench/run.sh --workload msg-pairs --seed 1 --seconds 10 --trace 0
//
// A run repeats the workload — one simulation, or one whole campaign on
// sweep-campaign — until the budget is spent, after one untimed warm-up
// repetition. End-to-end metrics are medians over repetitions with no
// profiler attached, scaled to a reference machine by a kernel timed
// around each repetition, and between the parts of a sweep-campaign
// repetition (see refKernel). A traced run alternates untraced and traced
// repetitions: the traced ones time the benchmark's own calls into each
// layer and attach instr.Profiler to the engine; the untraced ones give
// the tracing overhead and the reference for the self-test.
//
// Every repetition is checked. At the pinned seed its outcome must
// match the pin bit for bit; at any seed it must meet the workload's
// invariants, match the first repetition, and read the same layer
// counters as the first repetition, traced or not.
//
// The metric tables below must match BENCHMARK.json at the checkout
// root, which the benchmark reads on start.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one reported metric. moves names the end-to-end metric
// and workload a per-layer metric is expected to move.
type metricDef struct {
	name, unit, moves string
}

// endToEnd lists the metrics a user of the simulator sees, measured
// with tracing off.
var endToEnd = []metricDef{
	{name: "activities_per_s", unit: "1/s"},
	{name: "setup_s", unit: "s"},
	{name: "wall_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "point_p50_ms", unit: "ms"},
	{name: "point_p90_ms", unit: "ms"},
}

// layerSpans are the timed layers: the set-up calls the benchmark makes
// into each layer, then the four kernel phases of instr.Profiler and
// the remainder of the run outside them. Each is reported as self time
// (<name>_s) and as share of the repetition's wall time (<name>_share).
var layerSpans = []metricDef{
	{name: "platform.build", moves: "setup_s on msg-contended; point_p50_ms on sweep-campaign"},
	{name: "msg.deploy", moves: "setup_s on msg-pairs"},
	{name: "simdag.build", moves: "setup_s on simdag-workflow"},
	{name: "simdag.schedule", moves: "setup_s on simdag-workflow"},
	{name: "faults.arm", moves: "point_p50_ms on sweep-campaign"},
	{name: "maxmin.solve", moves: "activities_per_s on msg-contended; not on msg-pairs"},
	{name: "surf.advance", moves: "activities_per_s on msg-pairs and simdag-workflow"},
	{name: "core.timers", moves: "activities_per_s on simdag-workflow"},
	{name: "core.dispatch", moves: "activities_per_s on msg-contended; near zero on msg-pairs"},
	{name: "core.handoff", moves: "activities_per_s on msg-contended; near zero on msg-pairs"},
}

// layerCounters are the per-layer counts and ratios, read from the
// public stats APIs and runtime/metrics after each repetition.
var layerCounters = []metricDef{
	{"maxmin.solves", "count", "activities_per_s on msg-contended"},
	{"maxmin.scope_vars_per_solve", "vars", "activities_per_s on msg-contended"},
	{"maxmin.max_scope_vars", "vars", "activities_per_s on msg-contended"},
	{"maxmin.parallel_solves", "count", "activities_per_s on msg-contended"},
	{"surf.actions_started", "count", "activities_per_s on msg-pairs and simdag-workflow"},
	{"surf.heap_peak", "count", "activities_per_s on msg-pairs and simdag-workflow"},
	{"core.simcalls_fast", "count", "activities_per_s on msg-contended"},
	{"core.simcalls_slow", "count", "activities_per_s on msg-contended"},
	{"core.goroutine_spawns", "count", "activities_per_s on msg-contended"},
	{"core.goroutines_peak", "count", "activities_per_s on msg-contended"},
	{"go.allocs_per_activity", "allocs", "activities_per_s and peak_rss_mb on msg-pairs"},
	{"go.bytes_per_activity", "B", "activities_per_s and peak_rss_mb on msg-pairs"},
	{"go.gc_cpu_frac", "frac", "activities_per_s and peak_rss_mb on msg-pairs"},
	{"surf.action_pool.hit_ratio", "frac", "activities_per_s on msg-pairs and msg-contended"},
	{"surf.res_slice_pool.hit_ratio", "frac", "activities_per_s on msg-pairs and msg-contended"},
	{"maxmin.var_pool.hit_ratio", "frac", "activities_per_s on msg-pairs and msg-contended"},
	{"maxmin.elem_pool.hit_ratio", "frac", "activities_per_s on msg-pairs and msg-contended"},
	{"core.worker_pool.hit_ratio", "frac", "activities_per_s on msg-contended"},
	{"msg.send_pool.hit_ratio", "frac", "activities_per_s on msg-pairs and msg-contended"},
	{"msg.recv_pool.hit_ratio", "frac", "activities_per_s on msg-pairs and msg-contended"},
	{"msg.chain_pool.hit_ratio", "frac", "activities_per_s on msg-pairs"},
	{"msg.queued_peak", "count", "activities_per_s on msg-pairs and msg-contended"},
	{"simdag.done", "count", "point_p50_ms on sweep-campaign"},
	{"simdag.failed", "count", "point_p50_ms on sweep-campaign"},
	{"simdag.reschedules", "count", "point_p50_ms on sweep-campaign"},
	{"faults.injections", "count", "point_p50_ms on sweep-campaign"},
	{"faults.recoveries", "count", "point_p50_ms on sweep-campaign"},
	{"trace.coverage", "frac", "none: the share of repetition wall time the layer spans cover"},
	{"trace.overhead", "ratio", "none: traced over untraced repetition wall time"},
}

// perLayer expands the layer tables into the per-layer metric list, in
// report order.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range layerSpans {
		out = append(out, metricDef{l.name + "_s", "s", l.moves})
	}
	for _, l := range layerSpans {
		out = append(out, metricDef{l.name + "_share", "frac", l.moves})
	}
	return append(out, layerCounters...)
}

// benchSpec is the part of BENCHMARK.json the benchmark checks itself
// against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json and checks that it lists exactly the
// workloads and metrics this program reports.
func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp benchSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var have, want []string
	for _, w := range sp.Workloads {
		have = append(have, "workload "+w.Name)
	}
	for _, w := range workloads {
		want = append(want, "workload "+w.name)
	}
	for _, m := range sp.EndToEnd {
		have = append(have, "end_to_end "+m.Name+" "+m.Unit)
	}
	for _, m := range endToEnd {
		want = append(want, "end_to_end "+m.name+" "+m.unit)
	}
	for _, m := range sp.PerLayer {
		have = append(have, "per_layer "+m.Name+" "+m.Unit)
	}
	for _, m := range perLayer() {
		want = append(want, "per_layer "+m.name+" "+m.unit)
	}
	sort.Strings(have)
	sort.Strings(want)
	if strings.Join(have, "\n") != strings.Join(want, "\n") {
		return nil, fmt.Errorf("%s does not list the workloads and metrics this benchmark reports:\nhave:\n  %s\nwant:\n  %s",
			path, strings.Join(have, "\n  "), strings.Join(want, "\n  "))
	}
	return &sp, nil
}

// result is the contract line printed last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", pinnedSeed, "input seed")
	seconds := flag.Int("seconds", 10, "measurement budget in wall-clock seconds")
	trace := flag.Int("trace", 0, "1 to report per-layer metrics from a traced run")
	flag.Parse()

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	w := workloadByName(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	why := ""
	for _, sw := range spec.Workloads {
		if sw.Name == w.name {
			why = sw.Why
		}
	}

	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	m := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	res := result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]metricValue),
	}
	defs := endToEnd
	vals := m.endToEnd(true)
	if *trace == 1 {
		defs = perLayer()
		vals = m.perLayer()
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}

	printReport(os.Stdout, w.name, why, *seed, *seconds, *trace == 1, m)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

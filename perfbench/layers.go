package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/instr"
)

// spans records the self time of each layer in a traced repetition.
// The benchmark times its own calls into the set-up layers; the run is
// split by an instr.Profiler attached to the engine. Every method is a
// no-op on a nil receiver, which is how untraced repetitions run.
type spans struct {
	self map[string]time.Duration
	prof *instr.Profiler
}

func newSpans() *spans { return &spans{self: make(map[string]time.Duration)} }

// begin samples the clock at the start of a layer call.
func (s *spans) begin() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// end charges the time since t0 to layer.
func (s *spans) end(layer string, t0 time.Time) {
	if s == nil {
		return
	}
	s.self[layer] += time.Since(t0)
}

// attach gives the engine a fresh profiler for the run that follows.
func (s *spans) attach(e *core.Engine) {
	if s == nil {
		return
	}
	s.prof = instr.NewProfiler()
	e.SetProfiler(s.prof)
}

// endRun charges the profiler's four kernel phases to their layers and
// the rest of the run's wall time to core.handoff, so the run's layer
// times add up to the run.
func (s *spans) endRun(run time.Duration) {
	if s == nil {
		return
	}
	phases := []struct {
		layer string
		ph    instr.Phase
	}{
		{"maxmin.solve", instr.PhaseSolve},
		{"surf.advance", instr.PhaseAdvance},
		{"core.timers", instr.PhaseSweep},
		{"core.dispatch", instr.PhaseDispatch},
	}
	var inPhases time.Duration
	for _, p := range phases {
		d := s.prof.Total(p.ph)
		s.self[p.layer] += d
		inPhases += d
	}
	s.self["core.handoff"] += run - inPhases
}

// goStats are Go runtime figures over an interval.
type goStats struct {
	allocs, bytes         float64 // heap objects and bytes allocated
	gcCPU, cpuTotal, idle float64 // CPU seconds: GC, all, idle
}

var goMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// readGo reads the cumulative Go runtime figures.
func readGo() goStats {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{
		allocs:   v(0) + v(1),
		bytes:    v(2),
		gcCPU:    v(3),
		cpuTotal: v(4),
		idle:     v(5),
	}
}

func (g goStats) sub(o goStats) goStats {
	return goStats{
		allocs:   g.allocs - o.allocs,
		bytes:    g.bytes - o.bytes,
		gcCPU:    g.gcCPU - o.gcCPU,
		cpuTotal: g.cpuTotal - o.cpuTotal,
		idle:     g.idle - o.idle,
	}
}

func (g goStats) add(o goStats) goStats {
	return goStats{
		allocs:   g.allocs + o.allocs,
		bytes:    g.bytes + o.bytes,
		gcCPU:    g.gcCPU + o.gcCPU,
		cpuTotal: g.cpuTotal + o.cpuTotal,
		idle:     g.idle + o.idle,
	}
}

// gcFrac is GC CPU time over the CPU time the process used.
func (g goStats) gcFrac() float64 {
	if busy := g.cpuTotal - g.idle; busy > 0 {
		return g.gcCPU / busy
	}
	return 0
}

// snapshot flattens a metrics registry into name → value, through the
// registry's own JSON snapshot.
func snapshot(r *instr.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("registry snapshot: %w", err)
	}
	return out, nil
}

// workerPoolDelta replaces the process-wide worker pool scoreboard in
// a snapshot by its change since before, so the counters describe one
// repetition.
func workerPoolDelta(c map[string]float64, before instr.PoolStat) {
	now := core.WorkerPoolStats()
	c["core.worker_pool.hit"] = float64(now.Hit - before.Hit)
	c["core.worker_pool.miss"] = float64(now.Miss - before.Miss)
}

// stateDependent reports counters that depend on what earlier
// simulations in the process left behind rather than on the run's
// inputs: the shared worker-stack pool, and the fresh goroutines spawned
// when that pool is cold. The self-test does not compare them.
func stateDependent(name string) bool {
	return strings.HasPrefix(name, "core.worker_pool.") || name == "core.goroutine_spawns"
}

// sameCounters is the self-test: two repetitions of the same inputs,
// traced or not, must read the same counters.
func sameCounters(want, got map[string]float64) error {
	var diffs []string
	for k, v := range want {
		if stateDependent(k) {
			continue
		}
		if g, ok := got[k]; !ok || g != v {
			diffs = append(diffs, fmt.Sprintf("%s: %v != %v", k, g, v))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok && !stateDependent(k) {
			diffs = append(diffs, k+": unexpected")
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	sort.Strings(diffs)
	return fmt.Errorf("counters differ between repetitions: %s", strings.Join(diffs, "; "))
}

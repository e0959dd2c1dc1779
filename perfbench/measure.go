package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// sample is one repetition of a workload: one simulation, or one whole
// campaign on sweep-campaign.
type sample struct {
	setup time.Duration // wall time before the simulated clock starts
	run   time.Duration // wall time of Run/Simulate (the campaign on sweep-campaign)
	wall  time.Duration // time in the simulator's calls: set-up plus run (the campaign on sweep-campaign)

	activities int       // completed activities or tasks
	points     []float64 // per-point wall times in ms; one point per simulation
	ops        int       // operations attempted: simulations, or grid points
	out        outcome
	counters   map[string]float64 // layer counters, see snapshot
	goRun      goStats            // Go runtime deltas over the run phase
	spans      map[string]time.Duration
	// Reference-kernel times around the repetition. A workload whose
	// set-up is timed apart from its run, after it, sets mid to the
	// kernel's time between the two. A workload that times its run in
	// parts, with the kernel timed between them, lists the parts'
	// times and the kernel's times between them.
	before, mid, after time.Duration
	parts, between     []time.Duration
}

// kernels returns the kernel time around the run, the mean of the
// kernel times around each of its parts weighted by the part's length,
// and the kernel time around the set-up.
func (s *sample) kernels() (run, setup time.Duration) {
	end := s.after
	if s.mid != 0 {
		end = s.mid
	}
	run = (s.before + end) / 2
	if len(s.parts) > 0 && s.run > 0 {
		bounds := append(append([]time.Duration{s.before}, s.between...), end)
		var sum float64
		for j, p := range s.parts {
			sum += p.Seconds() * (bounds[j] + bounds[j+1]).Seconds() / 2
		}
		run = time.Duration(sum / s.run.Seconds() * float64(time.Second))
	}
	setup = run
	if s.mid != 0 {
		setup = (s.mid + s.after) / 2
	}
	return run, setup
}

// minReps is the fewest timed repetitions a run makes, whatever its
// budget.
const minReps = 3

// measurement collects a run's repetitions.
type measurement struct {
	reps, traced      []sample
	attempted, failed int
	problems          []string
	ref               *sample // the warm-up repetition: reference outcome and counters
	rssMB             float64
}

// measure runs w until the budget is spent. Every repetition is
// checked: an error, an outcome differing from the pin or from the
// warm-up repetition's, or counters differing from the warm-up
// repetition's fail it.
func measure(w *workload, seed int64, budget time.Duration, traced bool) *measurement {
	m := &measurement{}
	deadline := time.Now().Add(budget)
	m.one(w, seed, nil) // warm-up: checked, not timed
	// Stop before a round that would end past the deadline, judging by
	// the previous round, so a run lasts about its budget.
	var round time.Duration
	for i := 0; i < minReps || time.Now().Add(round).Before(deadline); i++ {
		t0 := time.Now()
		if s, ok := m.one(w, seed, nil); ok {
			m.reps = append(m.reps, s)
		}
		if traced {
			if s, ok := m.one(w, seed, newSpans()); ok {
				m.traced = append(m.traced, s)
			}
		}
		round = time.Since(t0)
	}
	m.rssMB = peakRSSMB()
	return m
}

// one runs and checks a single repetition, between two runs of the
// reference kernel.
func (m *measurement) one(w *workload, seed int64, sp *spans) (sample, bool) {
	before := calibrate()
	s, err := w.run(seed, sp)
	s.before, s.after = before, calibrate()
	if sp != nil {
		s.spans = sp.self
	}
	if s.ops < 1 {
		s.ops = 1
	}
	m.attempted += s.ops
	if err == nil {
		err = m.check(w, seed, &s)
	}
	if err != nil {
		m.failed += s.ops
		if len(m.problems) < 5 {
			m.problems = append(m.problems, err.Error())
		}
		return s, false
	}
	return s, true
}

// check compares a repetition's outcome with the pin or the reference
// repetition, and its counters with the reference's: the profiler and
// the layer spans are report-only, so traced and untraced repetitions
// must agree exactly.
func (m *measurement) check(w *workload, seed int64, s *sample) error {
	if pin, ok := pinned[w.name]; ok && seed == pinnedSeed {
		if err := s.out.matches(pin); err != nil {
			return fmt.Errorf("pinned result for seed %d: %w", seed, err)
		}
	}
	if m.ref == nil {
		ref := *s
		m.ref = &ref
		return nil
	}
	if err := s.out.matches(m.ref.out); err != nil {
		return fmt.Errorf("result differs from the first repetition: %w", err)
	}
	return sameCounters(m.ref.counters, s.counters)
}

// endToEnd reports the medians over the untraced repetitions, with
// every time scaled to the reference machine by the kernel (see
// refKernel) when normalize is set. A point is a grid point on
// sweep-campaign and the whole simulation elsewhere; its percentiles
// are taken within each repetition. point_p99_ms is reported but not
// gated: on sweep-campaign it moved by a fifth between runs of the
// same code, with a few-millisecond hiccup of the machine slowing the
// 1% slowest points of a repetition, so point_p90_ms is the gated tail.
func (m *measurement) endToEnd(normalize bool) map[string]float64 {
	var setup, wall, rate, p50, p90, p99 []float64
	for _, s := range m.reps {
		scale, setupScale := 1.0, 1.0
		if normalize {
			run, set := s.kernels()
			scale, setupScale = refKernel.Seconds()/run.Seconds(), refKernel.Seconds()/set.Seconds()
		}
		setup = append(setup, setupScale*s.setup.Seconds())
		wall = append(wall, scale*s.wall.Seconds())
		rate = append(rate, float64(s.activities)/(scale*s.run.Seconds()))
		p50 = append(p50, scale*percentile(s.points, 0.50))
		p90 = append(p90, scale*percentile(s.points, 0.90))
		p99 = append(p99, scale*percentile(s.points, 0.99))
	}
	return map[string]float64{
		"activities_per_s": median(rate),
		"setup_s":          median(setup),
		"wall_s":           median(wall),
		"peak_rss_mb":      m.rssMB,
		"point_p50_ms":     median(p50),
		"point_p90_ms":     median(p90),
		"point_p99_ms":     median(p99),
	}
}

// perLayer reports the medians of the traced repetitions' layer self
// times and shares, the Go runtime figures of the untraced repetitions,
// and the counters of the last one: counters other than the worker
// pool's are the same in every repetition, and the pool is warm by
// then.
func (m *measurement) perLayer() map[string]float64 {
	out := make(map[string]float64)
	var coverage, tracedWall, plainWall []float64
	for _, s := range m.traced {
		tracedWall = append(tracedWall, s.wall.Seconds())
		cov := 0.0
		for _, l := range layerSpans {
			cov += s.spans[l.name].Seconds() / s.wall.Seconds()
		}
		coverage = append(coverage, cov)
	}
	for _, l := range layerSpans {
		var self, share []float64
		for _, s := range m.traced {
			self = append(self, s.spans[l.name].Seconds())
			share = append(share, s.spans[l.name].Seconds()/s.wall.Seconds())
		}
		out[l.name+"_s"] = median(self)
		out[l.name+"_share"] = median(share)
	}
	var allocs, bytes, gc []float64
	for _, s := range m.reps {
		plainWall = append(plainWall, s.wall.Seconds())
		n := float64(max(s.activities, 1))
		allocs = append(allocs, s.goRun.allocs/n)
		bytes = append(bytes, s.goRun.bytes/n)
		gc = append(gc, s.goRun.gcFrac())
	}
	out["go.allocs_per_activity"] = median(allocs)
	out["go.bytes_per_activity"] = median(bytes)
	out["go.gc_cpu_frac"] = median(gc)
	out["trace.coverage"] = median(coverage)
	if pw := median(plainWall); pw > 0 {
		out["trace.overhead"] = median(tracedWall) / pw
	}
	if n := len(m.reps); n > 0 {
		for k, v := range derived(m.reps[n-1].counters) {
			out[k] = v
		}
	}
	return out
}

// derived turns raw registry counters into the reported per-layer
// counters: pool hit ratios and scope variables per solve.
func derived(c map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for _, d := range layerCounters {
		if v, ok := c[d.name]; ok {
			out[d.name] = v
		}
		if pool, ok := strings.CutSuffix(d.name, ".hit_ratio"); ok {
			if hit, miss := c[pool+".hit"], c[pool+".miss"]; hit+miss > 0 {
				out[d.name] = hit / (hit + miss)
			}
		}
	}
	if n := c["maxmin.solves"]; n > 0 {
		out["maxmin.scope_vars_per_solve"] = c["maxmin.scope_vars"] / n
	}
	return out
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile is the nearest-rank percentile: the smallest sample with
// at least a share p of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// printReport writes the human-readable report that precedes the
// contract line.
func printReport(w io.Writer, name, why string, seed int64, seconds int, traced bool, m *measurement) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", name, seed, seconds, traced)
	fmt.Fprintf(w, "  why: %s\n", why)
	fmt.Fprintf(w, "machine: %s\n", fingerprint())
	frac := 0.0
	if m.attempted > 0 {
		frac = float64(m.failed) / float64(m.attempted)
	}
	fmt.Fprintf(w, "repetitions: untraced=%d traced=%d  operations attempted=%d failed=%d failed_frac=%g\n",
		len(m.reps), len(m.traced), m.attempted, m.failed, frac)
	for _, p := range m.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	if m.ref != nil {
		pin := "unpinned seed: checked against invariants and the first repetition"
		if _, ok := pinned[name]; ok && seed == pinnedSeed {
			pin = "matches the pinned result"
		}
		fmt.Fprintf(w, "outcome: %s (%s)\n", m.ref.out, pin)
	}
	npoints := 0
	for _, s := range m.reps {
		npoints += len(s.points)
	}
	var kernels []float64
	for _, s := range m.reps {
		k, _ := s.kernels()
		kernels = append(kernels, ms(k))
	}
	fmt.Fprintf(w, "end-to-end, medians over untraced repetitions (points=%d; reference kernel %.2f ms, median %.2f ms here):\n",
		npoints, ms(refKernel), median(kernels))
	fmt.Fprintf(w, "  %-20s %16s %16s\n", "", "reference machine", "as timed here")
	norm, raw := m.endToEnd(true), m.endToEnd(false)
	for _, d := range append(endToEnd, metricDef{name: "point_p99_ms", unit: "ms"}) {
		fmt.Fprintf(w, "  %-20s %16.6g %16.6g %s\n", d.name, norm[d.name], raw[d.name], d.unit)
	}
	fmt.Fprintf(w, "  %-20s %16.6g %16s %s\n", "failed_frac", frac, "", "frac")
	fmt.Fprintf(w, "repetition wall times (ms):")
	for _, s := range m.reps {
		fmt.Fprintf(w, " %.1f", ms(s.wall))
	}
	fmt.Fprintf(w, "\nrepetition run times (ms):")
	for _, s := range m.reps {
		fmt.Fprintf(w, " %.1f", ms(s.run))
	}
	fmt.Fprintf(w, "\nrepetition kernel times around the run (ms):")
	for _, s := range m.reps {
		k, _ := s.kernels()
		fmt.Fprintf(w, " %.2f", ms(k))
	}
	fmt.Fprintln(w)
	if !traced {
		return
	}
	pl := m.perLayer()
	fmt.Fprintf(w, "layers, traced repetitions (median self time and share of repetition wall time):\n")
	for _, l := range layerSpans {
		fmt.Fprintf(w, "  %-16s %12.6f s %6.1f%%   moves %s\n", l.name, pl[l.name+"_s"], 100*pl[l.name+"_share"], l.moves)
	}
	fmt.Fprintf(w, "counters:\n")
	for _, d := range layerCounters {
		fmt.Fprintf(w, "  %-30s %14.6g %-6s moves %s\n", d.name, pl[d.name], d.unit, d.moves)
	}
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

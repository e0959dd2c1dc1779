package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/instr"
	"repro/internal/msg"
	"repro/internal/platform"
	"repro/internal/simdag"
	"repro/internal/surf"
	"repro/internal/sweep"
)

// workload is one benchmark input family. run makes the inputs from
// seed, runs one repetition and checks the invariants every seed must
// meet; sp is nil in untraced repetitions. procs, when not 0, is the
// GOMAXPROCS the whole run uses.
type workload struct {
	name  string
	run   func(seed int64, sp *spans) (sample, error)
	procs int
}

// sweep-campaign runs on one P. sweep.Execute at fanout 1 runs one
// engine at a time, but with Perf on it stops the world twice per grid
// point, and on two Ps each stop and the concurrent GC workers tie its
// time to how much of the second CPU other tenants leave it. The
// single-threaded reference kernel does not see that: on 2 vCPUs the
// correlation of the kernel's time with a repetition's run time was
// about 0 on two Ps, so scaling by it only added its noise, and 0.2 to
// 0.8 on one, where scaling halved the spread of run medians across
// seeds. The other workloads' times tracked the kernel on two Ps (0.79
// on simdag-workflow, 0.87 on msg-pairs), and msg-contended needs them
// for the parallel solve.
var workloads = []*workload{
	{"msg-pairs", msgPairs, 0},
	{"msg-contended", msgContended, 0},
	{"simdag-workflow", simdagWorkflow, 0},
	{"sweep-campaign", sweepCampaign, 1},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Workload sizes. Each repetition takes a fraction of a second to a
// second, so a run holds tens of them, and the working sets stay small:
// with 2000 pairs of 50 rounds instead of 500 of 200, msg-pairs ran
// half as fast per activity and its run-to-run spread tripled.
const (
	pairsCount  = 500 // msg-pairs: sender/receiver pairs, one link each
	pairsRounds = 200 // msg-pairs: put+compute rounds per pair

	contendedSide   = 96 // msg-contended: hosts on each side of the dumbbell
	contendedFlows  = 3  // msg-contended: sender/receiver processes per host
	contendedRounds = 25 // msg-contended: put+compute rounds per sender

	dagLayers = 60  // simdag-workflow: DAG layers
	dagWidth  = 100 // simdag-workflow: compute tasks per layer

	campaignSeeds = 64 // sweep-campaign: seed-axis length (16 points per seed)
	campaignParts = 4  // sweep-campaign: Execute calls per repetition, see sweepCampaign
)

// finish records per-entity finish times and errors, in creation
// order.
type finish struct {
	at  []float64
	err error
}

func (f *finish) done(i int, now float64, err error) {
	f.at[i] = now
	if err != nil && f.err == nil {
		f.err = err
	}
}

func (f *finish) digest() uint64 {
	d := newDigest()
	for _, t := range f.at {
		d.f64(t)
	}
	return d.sum()
}

// runEngine runs one simulation's drive loop and fills the sample's run
// and wall time, Go runtime deltas and layer times. The wall time is
// the time spent in the simulator's calls, set-up and run; the
// benchmark's own checks come after it.
func runEngine(s *sample, sp *spans, eng *core.Engine, drive func() error) error {
	sp.attach(eng)
	g0 := readGo()
	t0 := time.Now()
	err := drive()
	s.run = time.Since(t0)
	s.wall = s.setup + s.run
	s.goRun = readGo().sub(g0)
	sp.endRun(s.run)
	return err
}

// collect snapshots the layer counters of a finished simulation.
func collect(s *sample, into func(*instr.Registry), pool instr.PoolStat) error {
	reg := instr.NewRegistry()
	into(reg)
	c, err := snapshot(reg)
	if err != nil {
		return err
	}
	workerPoolDelta(c, pool)
	s.counters = c
	return nil
}

// msgPairs: declarative-chain sender/receiver pairs on disjoint links
// with seeded bandwidths and latencies. Every pair is its own MaxMin
// component and no goroutine runs, so the time goes to surf advance,
// the MSG chain step and rendezvous, and Go allocation.
func msgPairs(seed int64, sp *spans) (sample, error) {
	type pair struct {
		src, dst     string
		bw, lat      float64
		bytes, flops float64
		startDelay   float64
	}
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]pair, pairsCount)
	for i := range pairs {
		pairs[i] = pair{
			src: "s" + strconv.Itoa(i), dst: "r" + strconv.Itoa(i),
			bw: 1e8 * (1 + rng.Float64()), lat: 1e-4 * (1 + 4*rng.Float64()),
			bytes: 1e5 * (1 + 8*rng.Float64()), flops: 1e6 * (1 + 3*rng.Float64()),
			startDelay: 1e-3 * rng.Float64(),
		}
	}

	var s sample
	pool := core.WorkerPoolStats()
	t0 := time.Now()
	b := sp.begin()
	pf := platform.New()
	for i, p := range pairs {
		if err := pf.AddHost(&platform.Host{Name: p.src, Power: 1e9}); err != nil {
			return s, err
		}
		if err := pf.AddHost(&platform.Host{Name: p.dst, Power: 1e9}); err != nil {
			return s, err
		}
		l := &platform.Link{Name: "l" + strconv.Itoa(i), Bandwidth: p.bw, Latency: p.lat}
		if err := pf.AddRoute(p.src, p.dst, []*platform.Link{l}); err != nil {
			return s, err
		}
	}
	sp.end("platform.build", b)

	b = sp.begin()
	env := msg.NewEnvironment(pf, surf.DefaultConfig())
	fin := &finish{at: make([]float64, 2*len(pairs))}
	exit := func(i int) *msg.ChainConfig {
		return &msg.ChainConfig{OnExit: func(err error) { fin.done(i, env.Now(), err) }}
	}
	for i, p := range pairs {
		recv := msg.NewChain().Loop(pairsRounds).Get(1).End().MustBuild()
		if _, err := env.StartChain("recv", p.dst, recv, exit(2*i+1)); err != nil {
			return s, err
		}
		task := msg.NewTask("t", 0, p.bytes)
		send := msg.NewChain().
			Sleep(p.startDelay).
			Do(func(c *msg.ChainProc) { c.SetTask(task) }).
			Loop(pairsRounds).PutReg(p.dst, 1).Compute("c", p.flops).End().
			MustBuild()
		if _, err := env.StartChain("send", p.src, send, exit(2*i)); err != nil {
			return s, err
		}
	}
	sp.end("msg.deploy", b)
	s.setup = time.Since(t0)

	if err := runEngine(&s, sp, env.Engine(), env.Run); err != nil {
		return s, err
	}
	if fin.err != nil {
		return s, fin.err
	}
	for i, t := range fin.at {
		if !(t > 0) {
			return s, fmt.Errorf("chain %d never finished", i)
		}
	}
	s.activities = 2 * pairsRounds * len(pairs)
	s.points = []float64{ms(s.wall)}
	s.out = outcome{end: env.Now(), completed: s.activities, digest: fin.digest()}
	return s, collect(&s, env.MetricsInto, pool)
}

// msgContended: goroutine-form MSG processes sending across the
// bottleneck of a dumbbell, several flows per host. Every transfer
// shares one MaxMin component, large enough with the computes beside it
// for the parallel solve to engage, and the set-up computes all-pairs
// routes over hundreds of hosts, so the time goes to the MaxMin solve,
// the kernel handoff and platform routing.
func msgContended(seed int64, sp *spans) (sample, error) {
	const flows = contendedSide * contendedFlows
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(contendedSide)
	bytes := make([]float64, flows)
	flops := make([]float64, flows)
	delay := make([]float64, flows)
	for i := range bytes {
		bytes[i] = 1e6 * (1 + 4*rng.Float64())
		flops[i] = 1e7 * (1 + 3*rng.Float64())
		delay[i] = 1e-2 * rng.Float64()
	}

	var s sample
	pool := core.WorkerPoolStats()
	t0 := time.Now()
	b := sp.begin()
	pf, left, right, err := platform.NewDumbbell(platform.DumbbellConfig{
		LeftHosts: contendedSide, RightHosts: contendedSide, Power: 1e9,
		EdgeBandwidth: 1.25e8, EdgeLatency: 1e-4,
		BottleneckBandwidth: 1.25e9, BottleneckLatency: 5e-3,
	})
	sp.end("platform.build", b)
	if err != nil {
		return s, err
	}

	b = sp.begin()
	env := msg.NewEnvironment(pf, surf.DefaultConfig())
	fin := &finish{at: make([]float64, 2*flows)}
	done := 0
	for f := 0; f < flows; f++ {
		f, src, dst, channel := f, left[f/contendedFlows], right[perm[f/contendedFlows]], f%contendedFlows
		_, err := env.NewProcess("recv", dst, func(p *msg.Process) error {
			var err error
			for r := 0; r < contendedRounds && err == nil; r++ {
				_, err = p.Get(channel)
			}
			fin.done(2*f+1, p.Now(), err)
			return err
		})
		if err != nil {
			return s, err
		}
		_, err = env.NewProcess("send", src, func(p *msg.Process) error {
			err := p.Sleep(delay[f])
			for r := 0; r < contendedRounds && err == nil; r++ {
				if err = p.Put(msg.NewTask("t", 0, bytes[f]), dst, channel); err == nil {
					done++
					if err = p.Execute(msg.NewTask("c", flops[f], 0)); err == nil {
						done++
					}
				}
			}
			fin.done(2*f, p.Now(), err)
			return err
		})
		if err != nil {
			return s, err
		}
	}
	sp.end("msg.deploy", b)
	s.setup = time.Since(t0)

	if err := runEngine(&s, sp, env.Engine(), env.Run); err != nil {
		return s, err
	}
	if fin.err != nil {
		return s, fin.err
	}
	if want := 2 * contendedRounds * flows; done != want {
		return s, fmt.Errorf("%d of %d activities completed", done, want)
	}
	s.activities = done
	s.points = []float64{ms(s.wall)}
	s.out = outcome{end: env.Now(), completed: done, digest: fin.digest()}
	return s, collect(&s, env.MetricsInto, pool)
}

// simdagWorkflow: a HEFT-planned random layered DAG with data edges on
// a four-site grid whose site uplinks are shared. Planning dominates
// the set-up; the run exercises SimDag release, kernel timers and a
// moderately loaded MaxMin, with no MSG and no goroutines.
func simdagWorkflow(seed int64, sp *spans) (sample, error) {
	var s sample
	pool := core.WorkerPoolStats()
	t0 := time.Now()
	b := sp.begin()
	var sites []platform.ClusterConfig
	for i := 0; i < 4; i++ {
		sites = append(sites, platform.ClusterConfig{
			Prefix: "site" + strconv.Itoa(i) + "-", Hosts: 4,
			Power: 1e9 * float64(1+i), Bandwidth: 1.25e8, Latency: 1e-4,
		})
	}
	pf, hostsBySite, err := platform.NewMultiSite(platform.MultiSiteConfig{
		Sites: sites, WANBandwidth: 1.25e9, WANLatency: 1e-2,
	})
	sp.end("platform.build", b)
	if err != nil {
		return s, err
	}
	var hosts []string
	for _, h := range hostsBySite {
		hosts = append(hosts, h...)
	}

	b = sp.begin()
	sim := simdag.New(pf, surf.DefaultConfig())
	cfg := simdag.DefaultRandomConfig(dagLayers, dagWidth, seed)
	cfg.CommProb = 1
	tasks, err := simdag.RandomLayered(sim, cfg)
	sp.end("simdag.build", b)
	if err != nil {
		return s, err
	}
	b = sp.begin()
	err = simdag.ScheduleHEFT(sim, hosts)
	sp.end("simdag.schedule", b)
	if err != nil {
		return s, err
	}
	s.setup = time.Since(t0)

	if err := runEngine(&s, sp, sim.Engine(), func() error { _, err := sim.Simulate(); return err }); err != nil {
		return s, err
	}
	if sim.DoneCount() != len(tasks) || sim.FailedCount() != 0 {
		return s, fmt.Errorf("%d done and %d failed of %d tasks", sim.DoneCount(), sim.FailedCount(), len(tasks))
	}
	makespan := sim.Makespan()
	if math.IsInf(makespan, 0) || math.IsNaN(makespan) || makespan <= 0 {
		return s, fmt.Errorf("makespan %g", makespan)
	}
	d := newDigest()
	for _, t := range tasks {
		d.f64(t.Finish())
	}
	s.activities = sim.DoneCount()
	s.points = []float64{ms(s.wall)}
	s.out = outcome{end: makespan, completed: s.activities, digest: d.sum()}
	return s, collect(&s, sim.MetricsInto, pool)
}

// campaignSpecs is the bundled Faulty shape over the Default
// campaign's workloads with campaignSeeds seeds, its seed axis split
// into campaignParts specs. Every grid point keeps the sub-seed it has
// in the whole campaign: sub-seeds hash what a point is, not where it
// sits in the grid.
func campaignSpecs() []*sweep.Spec {
	per := campaignSeeds / campaignParts
	specs := make([]*sweep.Spec, campaignParts)
	for p := range specs {
		sp := sweep.Faulty()
		sp.Workloads = sweep.Default().Workloads
		sp.Seeds = make([]int64, per)
		for i := range sp.Seeds {
			sp.Seeds[i] = int64(p*per + i + 1)
		}
		specs[p] = sp
	}
	return specs
}

// pointRecord is what the correctness gate keeps of one grid point.
type pointRecord struct {
	key                 string
	makespan            float64
	tasks, done, failed int
	reschedules         uint64
}

// pointsOutcome digests the per-point records and checks the
// invariants: every task ends done or failed, and every makespan is
// finite.
func pointsOutcome(recs []pointRecord) (outcome, error) {
	var o outcome
	d := newDigest()
	for _, r := range recs {
		if r.done+r.failed != r.tasks {
			return o, fmt.Errorf("point %s: %d done + %d failed != %d tasks", r.key, r.done, r.failed, r.tasks)
		}
		if math.IsInf(r.makespan, 0) || math.IsNaN(r.makespan) || r.makespan <= 0 {
			return o, fmt.Errorf("point %s: makespan %g", r.key, r.makespan)
		}
		d.h.Write([]byte(r.key))
		d.f64(r.makespan)
		d.u64(uint64(r.tasks))
		d.u64(uint64(r.done))
		d.u64(uint64(r.failed))
		d.u64(r.reschedules)
		o.end += r.makespan
		o.completed += r.done
	}
	o.digest = d.sum()
	return o, nil
}

// mergeCounters adds one point's counters into a campaign total:
// counts add up, peaks and maxima take the largest value. The
// process-wide worker pool is left out, as sweep reports leave it out.
func mergeCounters(total, point map[string]float64) {
	for k, v := range point {
		switch {
		case stateDependent(k):
		case strings.Contains(k, "peak") || strings.Contains(k, "max"):
			total[k] = math.Max(total[k], v)
		default:
			total[k] += v
		}
	}
}

// sweepCampaign: thousands of short, isolated engines through
// sweep.Execute at fanout 1 with Perf on, so fixed per-engine costs
// dominate. Untraced repetitions run the campaign as campaignParts
// Execute calls of about a third of a second each, with the reference
// kernel timed between them: the slowdowns other tenants cause last
// about that long (the kernel's time, run back to back on 2 vCPUs, kept
// an autocorrelation of 0.36 over 0.3 s and 0.14 over 1 s), so a kernel
// timed only around the whole campaign tracked them poorly. Timed as
// one call, the campaign's wall_s spread by 0.08 of its median across
// ten seeds; in four parts, by 0.03 to 0.05 across five. The parts'
// reports are written out together, as one call's report would be, so
// the process's peak RSS is that of writing a 1024-point campaign's
// report; writing each part's report on its own left peak RSS spread
// by a third of its median across seeds. Untraced repetitions then set
// up every grid point again through the same public spec APIs without
// simulating, which gives setup_s. Traced repetitions replay the grid
// point by point with layer spans and a profiler on each engine, and
// must reproduce the campaign's per-point results and counters.
func sweepCampaign(seed int64, sp *spans) (sample, error) {
	specs := campaignSpecs()
	if sp != nil {
		return replayCampaign(specs, seed, sp, true)
	}
	var s sample
	var recs []pointRecord
	s.counters = make(map[string]float64)
	reports := make([]*sweep.CampaignReport, 0, len(specs))
	for p, spec := range specs {
		if p > 0 {
			s.between = append(s.between, calibrate())
		}
		g0 := readGo()
		t0 := time.Now()
		rep, err := sweep.Execute(spec, seed, sweep.Options{Fanout: 1, Perf: true})
		took := time.Since(t0)
		s.goRun = s.goRun.add(readGo().sub(g0))
		s.parts = append(s.parts, took)
		s.run += took
		if err != nil {
			return s, err
		}
		for i := range rep.Runs {
			r := &rep.Runs[i]
			recs = append(recs, pointRecord{r.Key, r.Makespan, r.Tasks, r.Done, r.Failed, r.Reschedules})
			s.points = append(s.points, r.Perf.WallUs/1e3)
			pc := make(map[string]float64, len(r.Metrics))
			for k, raw := range r.Metrics {
				var v float64
				if err := json.Unmarshal(raw, &v); err != nil {
					return s, fmt.Errorf("point %s metric %s: %w", r.Key, k, err)
				}
				pc[k] = v
			}
			mergeCounters(s.counters, pc)
			r.Perf = nil
		}
		s.ops += len(rep.Runs)
		reports = append(reports, rep)
	}
	s.wall = s.run
	var err error
	if s.out, err = pointsOutcome(recs); err != nil {
		return s, err
	}
	data, err := sweep.Marshal(reports)
	if err != nil {
		return s, err
	}
	d := newDigest()
	d.h.Write(data)
	s.out.report = d.sum()
	s.activities = s.out.completed

	s.mid = calibrate()
	setupOnly, err := replayCampaign(specs, seed, nil, false)
	if err != nil {
		return s, err
	}
	s.setup = setupOnly.setup
	return s, nil
}

// replayCampaign sets up every grid point of specs, in order, exactly
// as sweep.Execute does, through the public spec APIs, and simulates it
// when simulate is set.
func replayCampaign(specs []*sweep.Spec, seed int64, sp *spans, simulate bool) (sample, error) {
	var s sample
	var runs []sweep.Run
	for _, spec := range specs {
		part, err := sweep.Expand(spec, seed)
		if err != nil {
			return s, err
		}
		runs = append(runs, part...)
	}
	var recs []pointRecord
	s.counters = make(map[string]float64)
	s.ops = len(runs)
	for i := range runs {
		r := &runs[i]
		t0 := time.Now()
		b := sp.begin()
		pf, hosts, err := r.Platform.Build()
		sp.end("platform.build", b)
		if err != nil {
			return s, err
		}
		b = sp.begin()
		sim := simdag.New(pf, r.Solver.Config())
		err = r.Workload.Build(sim, r.RunSeed)
		sp.end("simdag.build", b)
		if err != nil {
			return s, err
		}
		var inj *faults.Injector
		if r.Fault.Active() {
			b = sp.begin()
			inj, err = armFaults(r, hosts, sim)
			sp.end("faults.arm", b)
			if err != nil {
				return s, err
			}
		}
		b = sp.begin()
		switch r.Scheduler {
		case "minmin":
			err = simdag.ScheduleMinMin(sim, hosts)
		case "rr":
			err = simdag.ScheduleRoundRobin(sim, hosts)
		case "heft":
			err = simdag.ScheduleHEFT(sim, hosts)
		default:
			err = fmt.Errorf("unknown scheduler %q", r.Scheduler)
		}
		sp.end("simdag.schedule", b)
		if err != nil {
			return s, err
		}
		point := sample{setup: time.Since(t0)}
		s.setup += point.setup
		if !simulate {
			continue
		}

		if err := runEngine(&point, sp, sim.Engine(), func() error { _, err := sim.Simulate(); return err }); err != nil {
			return s, err
		}
		s.run += point.run
		s.wall += point.wall
		reg := instr.NewRegistry()
		sim.MetricsInto(reg)
		if inj != nil {
			inj.MetricsInto(reg)
		}
		pc, err := snapshot(reg)
		if err != nil {
			return s, err
		}
		mergeCounters(s.counters, pc)
		recs = append(recs, pointRecord{r.Key, sim.Makespan(), len(sim.Tasks()), sim.DoneCount(), sim.FailedCount(), sim.Reschedules()})
	}
	if !simulate {
		return s, nil
	}
	var err error
	s.out, err = pointsOutcome(recs)
	s.activities = s.out.completed
	return s, err
}

// armFaults compiles and arms the point's failure process and turns on
// rescheduling, as sweep.Execute does.
func armFaults(r *sweep.Run, hosts []string, sim *simdag.Simulation) (*faults.Injector, error) {
	params, err := r.Fault.Params(hosts)
	if err != nil {
		return nil, err
	}
	sched, err := faults.Compile(r.RunSeed, params)
	if err != nil {
		return nil, err
	}
	inj, err := faults.Arm(sched, sim.Model())
	if err != nil {
		return nil, err
	}
	sim.SetReschedulePolicy(hosts)
	return inj, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

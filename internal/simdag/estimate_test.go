package simdag

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/surf"
)

// estScenario is one platform and host pool for the estimator
// equivalence tests. outside, when set, is a platform host left out of
// the pool: every seventh compute is pre-placed on it before
// scheduling, so its transfers leave the pool's route table. zeroWork
// empties every fifth compute, so zero-length intervals meet HEFT's
// gap search.
type estScenario struct {
	name     string
	pf       *platform.Platform
	pool     []string
	outside  string
	ptasks   bool
	zeroWork bool
}

func estScenarios(t *testing.T) []estScenario {
	t.Helper()
	cluster, chosts, err := platform.NewCluster(platform.ClusterConfig{
		Prefix: "n", Hosts: 6, Power: 2e9, Bandwidth: 1.25e8, Latency: 1e-4, Backbone: 5e8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sites []platform.ClusterConfig
	for i := 0; i < 3; i++ {
		sites = append(sites, platform.ClusterConfig{
			Prefix: "s" + itoa(i) + "-", Hosts: 3,
			Power: 1e9 * float64(1+i), Bandwidth: 1.25e8, Latency: 1e-4,
		})
	}
	multi, bySite, err := platform.NewMultiSite(platform.MultiSiteConfig{
		Sites: sites, WANBandwidth: 1.25e9, WANLatency: 1e-2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mhosts []string
	for _, hs := range bySite {
		mhosts = append(mhosts, hs...)
	}
	wax, err := platform.GenerateWaxman(platform.DefaultWaxmanConfig(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	var whosts []string
	for _, h := range wax.Hosts() {
		whosts = append(whosts, h.Name)
	}
	return []estScenario{
		{name: "cluster", pf: cluster, pool: chosts},
		{name: "multisite", pf: multi, pool: mhosts},
		{name: "waxman", pf: wax, pool: whosts, ptasks: true},
		{name: "duplicate-host", pf: multi,
			pool: []string{mhosts[0], mhosts[4], mhosts[0], mhosts[7], mhosts[4], mhosts[2]}},
		{name: "pre-placed-outside", pf: multi, pool: mhosts[:5], outside: mhosts[8]},
		{name: "no-route", pf: partialRoutes(t), pool: []string{"p0", "p1", "p2", "p3"}},
		{name: "zero-work", pf: multi, pool: mhosts, zeroWork: true},
	}
}

// partialRoutes is a four-host platform where only p0–p1, p1–p2 and
// p2–p3 are routed: every other pair has no route.
func partialRoutes(t *testing.T) *platform.Platform {
	t.Helper()
	pf := platform.New()
	for i := 0; i < 4; i++ {
		if err := pf.AddHost(&platform.Host{Name: "p" + itoa(i), Power: 1e9 * float64(i+1)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		l := &platform.Link{Name: "l" + itoa(i), Bandwidth: 1e8 / float64(i+1), Latency: 1e-3 * float64(i+1)}
		if err := pf.AddRoute("p"+itoa(i), "p"+itoa(i+1), []*platform.Link{l}); err != nil {
			t.Fatal(err)
		}
	}
	return pf
}

// build instantiates the scenario's DAG for a seed, with the outside
// pre-placements applied.
func (sc estScenario) build(t *testing.T, seed int64) *Simulation {
	t.Helper()
	s := New(sc.pf, surf.DefaultConfig())
	cfg := DefaultRandomConfig(6, 8, seed)
	cfg.CommProb = 0.7
	if sc.ptasks {
		cfg.PtaskProb = 0.1
		cfg.PtaskSlots = 2
	}
	if _, err := RandomLayered(s, cfg); err != nil {
		t.Fatal(err)
	}
	for i, task := range s.Tasks() {
		if task.Kind() != Compute {
			continue
		}
		if sc.outside != "" && i%7 == 0 {
			if err := task.Schedule(sc.outside); err != nil {
				t.Fatal(err)
			}
		}
		if sc.zeroWork && i%5 == 0 {
			task.amount = 0
		}
	}
	return s
}

// routeReference expresses the default HEFT cost model through the
// hooks, resolving every estimate by name through platform.Route — the
// reference the estimator's table must reproduce bit for bit. With
// mean set, the mean transfer cost is a hook too; without it, HEFT's
// own mean must still go through the CommCost hook.
func routeReference(pf *platform.Platform, pool []string, mean bool) *HEFTOptions {
	o := &HEFTOptions{
		Cost: func(t *Task, host string) float64 { return t.Amount() / pf.Host(host).Power },
		CommCost: func(c *Task, src, dst string) float64 {
			if src == dst || src == "" || dst == "" {
				return 0
			}
			route, err := pf.Route(src, dst)
			if err != nil || len(route.Links) == 0 {
				return 0
			}
			return route.Latency() + c.Amount()/route.Bottleneck()
		},
	}
	if mean {
		o.MeanCommCost = func(c *Task) float64 {
			sum, n := 0.0, 0
			for i := range pool {
				for j := range pool {
					if i != j {
						sum += o.CommCost(c, pool[i], pool[j])
						n++
					}
				}
			}
			if n == 0 {
				return 0
			}
			return sum / float64(n)
		}
	}
	return o
}

// TestHEFTEstimatorMatchesRouteReference: HEFT on its default cost
// model plans bit-identically to the same model spelled out through
// the hooks on platform.Route — every rank, and every planned host,
// start and finish.
func TestHEFTEstimatorMatchesRouteReference(t *testing.T) {
	for _, sc := range estScenarios(t) {
		for seed := int64(1); seed <= 3; seed++ {
			s0 := sc.build(t, seed)
			want, err := ScheduleHEFTStats(s0, sc.pool, nil)
			if err != nil {
				t.Fatalf("%s seed %d: default: %v", sc.name, seed, err)
			}
			for _, mean := range []bool{false, true} {
				s1 := sc.build(t, seed)
				got, err := ScheduleHEFTStats(s1, sc.pool, routeReference(sc.pf, sc.pool, mean))
				if err != nil {
					t.Fatalf("%s seed %d: reference: %v", sc.name, seed, err)
				}
				where := fmt.Sprintf("%s seed %d (mean hook %v)", sc.name, seed, mean)
				comparePlans(t, where, s0, want, s1, got)
			}
		}
	}
}

// comparePlans fails unless two HEFT passes over identical DAGs agree
// bit for bit.
func comparePlans(t *testing.T, where string, s0 *Simulation, a *HEFTStats, s1 *Simulation, b *HEFTStats) {
	t.Helper()
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.CriticalPath, b.CriticalPath) || !same(a.PlannedMakespan, b.PlannedMakespan) {
		t.Fatalf("%s: critical path %v/%v, planned makespan %v/%v",
			where, a.CriticalPath, b.CriticalPath, a.PlannedMakespan, b.PlannedMakespan)
	}
	if len(a.Plan) != len(b.Plan) {
		t.Fatalf("%s: %d vs %d planned units", where, len(a.Plan), len(b.Plan))
	}
	for i := range a.Plan {
		x, y := a.Plan[i], b.Plan[i]
		if x.Task.Name() != y.Task.Name() || x.Host != y.Host || !same(x.Start, y.Start) || !same(x.Finish, y.Finish) {
			t.Fatalf("%s: plan[%d] = %s on %s [%v, %v], reference %s on %s [%v, %v]",
				where, i, x.Task.Name(), x.Host, x.Start, x.Finish, y.Task.Name(), y.Host, y.Start, y.Finish)
		}
	}
	t1 := s1.Tasks()
	for i, task := range s0.Tasks() {
		if ra, rb := a.RankOf(task), b.RankOf(t1[i]); !same(ra, rb) {
			t.Fatalf("%s: rank of %s = %v, reference %v", where, task.Name(), ra, rb)
		}
	}
}

// TestHEFTRankOfForeignTasks: RankOf answers NaN for a task of another
// simulation and for one created after the pass.
func TestHEFTRankOfForeignTasks(t *testing.T) {
	sc := estScenarios(t)[1]
	s := sc.build(t, 1)
	st, err := ScheduleHEFTStats(s, sc.pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := st.RankOf(s.Tasks()[0]); math.IsNaN(r) {
		t.Fatalf("rank of a ranked task is NaN")
	}
	other := sc.build(t, 1)
	if r := st.RankOf(other.Tasks()[0]); !math.IsNaN(r) {
		t.Fatalf("rank of another simulation's task = %v, want NaN", r)
	}
	if r := st.RankOf(s.NewTask("late", 1)); !math.IsNaN(r) {
		t.Fatalf("rank of a task created after the pass = %v, want NaN", r)
	}
}

// TestMinMinPlacementsPinned pins min-min's placements on the
// estimator scenarios (seeds 1–3) to digests recorded with the
// name-resolved implementation, which called platform.Route for every
// estimate.
func TestMinMinPlacementsPinned(t *testing.T) {
	want := map[string]string{
		"cluster":            "7f225bd03c4b116d",
		"multisite":          "20295b042f49f98a",
		"waxman":             "b5316155c89cc147",
		"duplicate-host":     "e33ad8fd196d9d39",
		"pre-placed-outside": "43dd32686e582b05",
		"no-route":           "e81e2852486c8d5e",
		"zero-work":          "4448fb0fd200e6fe",
	}
	for _, sc := range estScenarios(t) {
		h := fnv.New64a()
		for seed := int64(1); seed <= 3; seed++ {
			s := sc.build(t, seed)
			if err := ScheduleMinMin(s, sc.pool); err != nil {
				t.Fatalf("%s seed %d: %v", sc.name, seed, err)
			}
			for _, task := range s.Tasks() {
				src, dst := task.Endpoints()
				fmt.Fprintf(h, "%s|%s|%s|%s|%v\n", task.Name(), task.Host(), src, dst, task.ParallelHosts())
			}
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want[sc.name] {
			t.Errorf("%s: placement digest %s, want %s", sc.name, got, want[sc.name])
		}
	}
}

// TestHEFTFitMatchesLinearScan: fit's binary search returns what a
// scan of every gap returns, on start-sorted spans with shared
// boundaries, zero-length and negative lengths, and ready times on and
// between span edges.
func TestHEFTFitMatchesLinearScan(t *testing.T) {
	linear := func(spans []heftSpan, ready, w float64) float64 {
		prevEnd := 0.0
		for _, sp := range spans {
			start := prevEnd
			if ready > start {
				start = ready
			}
			if start+w <= sp.start {
				return start
			}
			prevEnd = sp.end
		}
		if ready > prevEnd {
			return ready
		}
		return prevEnd
	}
	rng := rand.New(rand.NewSource(1))
	h := hostRef{"h", 0}
	for trial := 0; trial < 2000; trial++ {
		p := &heftPlanner{}
		at := 0.0
		for n := rng.Intn(6); n > 0; n-- {
			at += float64(rng.Intn(3)) // gaps of 0, 1 or 2
			w := float64(rng.Intn(3))
			p.occupy(h, at, w)
			at += w
		}
		ready := float64(rng.Intn(int(at)+3)) / 2
		for _, w := range []float64{0, 0.5, 1, 2, -1, math.NaN()} {
			got, want := p.fit(h, ready, w), linear(p.spans(h), ready, w)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("spans %v, ready %g, length %g: fit %g, full scan %g", p.spans(h), ready, w, got, want)
			}
		}
	}
}

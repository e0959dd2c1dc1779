// benchstats runs the scaling benchmarks programmatically and emits
// machine-readable per-tier stats, so the perf trajectory is tracked
// across revisions as data instead of log grepping:
//
//	benchstats -benchjson out/          # full tiers (minutes)
//	benchstats -benchjson out/ -small   # reduced tiers (CI smoke)
//
// writes out/BENCH_msg_scaling.json and out/BENCH_simdag_scaling.json
// with µs/activity, allocs/op and the goroutine accounting split
// (logical starts vs fresh stacks vs peak) for every size tier. The
// workloads are the same pair chains as BenchmarkMSGScaling and
// BenchmarkSimDagScaling, rebuilt here against public APIs only so the
// binary can be dropped onto an older revision to backfill a baseline.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/msg"
	"repro/internal/platform"
	"repro/internal/simdag"
	"repro/internal/surf"
	"repro/internal/sweep"
)

func main() {
	outDir := flag.String("benchjson", ".", "directory to write BENCH_*.json into")
	small := flag.Bool("small", false, "run reduced tiers (CI smoke)")
	flag.Parse()

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	write(filepath.Join(*outDir, "BENCH_msg_scaling.json"), msgReport(*small))
	write(filepath.Join(*outDir, "BENCH_simdag_scaling.json"), simdagReport(*small))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchstats:", err)
	os.Exit(1)
}

func write(path string, rep sweep.TierReport) {
	data, err := sweep.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d tiers)\n", path, len(rep.Tiers))
}

// --- MSG pair workload (mirrors BenchmarkMSGScaling) --------------------

func scalingPlatform(nPairs int) *platform.Platform {
	pf := platform.New()
	for i := 0; i < nPairs; i++ {
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		must(pf.AddHost(&platform.Host{Name: src, Power: 1e9}))
		must(pf.AddHost(&platform.Host{Name: dst, Power: 1e9}))
		l := &platform.Link{
			Name:      fmt.Sprintf("l%d", i),
			Bandwidth: 1e8 * (1 + 0.15*float64(i%7)),
			Latency:   1e-4 * (1 + float64(i%5)),
		}
		must(pf.AddRoute(src, dst, []*platform.Link{l}))
	}
	return pf
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

// modelPools collects the scoreboards shared by every workload form:
// the surf action/slice free lists, the maxmin solver's free lists, and
// the process-global worker-stack pool.
func modelPools(m *surf.Model) map[string]instr.PoolStat {
	return map[string]instr.PoolStat{
		"surf.action":    m.ActionPoolStats(),
		"surf.res_slice": m.ResSlicePoolStats(),
		"maxmin.var":     m.VarPoolStats(),
		"maxmin.elem":    m.ElemPoolStats(),
		"core.worker":    core.WorkerPoolStats(),
	}
}

// msgPools adds the MSG rendezvous/chain free lists on top.
func msgPools(env *msg.Environment) map[string]instr.PoolStat {
	pools := modelPools(env.Model())
	pools["msg.send"] = env.SendPoolStats()
	pools["msg.recv"] = env.RecvPoolStats()
	pools["msg.chain"] = env.ChainPoolStats()
	return pools
}

func pairPayload(i int) (bytes, flops float64) {
	return 1e5 * (1 + float64(i%9)), 1e6 * (1 + float64(i%4))
}

func buildGoroutineEnv(pf *platform.Platform, nPairs, rounds int) *msg.Environment {
	env := msg.NewEnvironment(pf, surf.DefaultConfig())
	const channel = 1
	for i := 0; i < nPairs; i++ {
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		bytes, flops := pairPayload(i)
		_, err := env.NewProcess("recv", dst, func(p *msg.Process) error {
			for r := 0; r < rounds; r++ {
				if _, err := p.Get(channel); err != nil {
					return err
				}
			}
			return nil
		})
		must(err)
		_, err = env.NewProcess("send", src, func(p *msg.Process) error {
			for r := 0; r < rounds; r++ {
				if err := p.Put(msg.NewTask("t", 0, bytes), dst, channel); err != nil {
					return err
				}
				if err := p.Execute(msg.NewTask("c", flops, 0)); err != nil {
					return err
				}
			}
			return nil
		})
		must(err)
	}
	return env
}

func buildChainEnv(pf *platform.Platform, nPairs, rounds int) *msg.Environment {
	env := msg.NewEnvironment(pf, surf.DefaultConfig())
	const channel = 1
	for i := 0; i < nPairs; i++ {
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		bytes, flops := pairPayload(i)
		taskBytes := bytes
		recv := msg.NewChain().Loop(rounds).Get(channel).End().MustBuild()
		_, err := env.StartChain("recv", dst, recv, nil)
		must(err)
		send := msg.NewChain().
			Do(func(c *msg.ChainProc) { c.SetTask(msg.NewTask("t", 0, taskBytes)) }).
			Loop(rounds).
			PutReg(dst, channel).
			Compute("c", flops).
			End().
			MustBuild()
		_, err = env.StartChain("send", src, send, nil)
		must(err)
	}
	return env
}

func msgReport(small bool) sweep.TierReport {
	type tier struct {
		name   string
		pairs  int
		rounds int
		form   string
	}
	tiers := []tier{
		{"activities-1k", 50, 10, "goroutine"},
		{"activities-10k", 500, 10, "goroutine"},
		{"activities-100k", 5000, 10, "goroutine"},
		{"activities-1M", 10000, 50, "goroutine"},
		{"activities-10M", 100000, 50, "chain"},
	}
	if small {
		tiers = []tier{
			{"activities-1k", 50, 10, "goroutine"},
			{"activities-10k", 500, 10, "goroutine"},
			{"activities-20k-chain", 2000, 5, "chain"},
		}
	}
	rep := sweep.TierReport{SchemaVersion: sweep.SchemaVersion, Benchmark: "msg_scaling", Small: small}
	for _, tc := range tiers {
		tc := tc
		activities := 2 * tc.pairs * tc.rounds
		pf := scalingPlatform(tc.pairs)
		var last *msg.Environment
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var env *msg.Environment
				if tc.form == "chain" {
					env = buildChainEnv(pf, tc.pairs, tc.rounds)
				} else {
					env = buildGoroutineEnv(pf, tc.pairs, tc.rounds)
				}
				if err := env.Run(); err != nil {
					fatal(fmt.Errorf("%s: %w", tc.name, err))
				}
				last = env
			}
		})
		eng := last.Engine()
		solver := last.Model().SolverStats()
		rep.Tiers = append(rep.Tiers, sweep.TierStat{
			Name:            tc.name,
			Form:            tc.form,
			Activities:      activities,
			UsPerActivity:   float64(res.NsPerOp()) / float64(activities) / 1e3,
			AllocsPerOp:     res.AllocsPerOp(),
			BytesPerOp:      res.AllocedBytesPerOp(),
			Spawned:         eng.Spawned(),
			GoroutineSpawns: eng.GoroutineSpawns(),
			GoroutinesPeak:  eng.GoroutinesPeak(),
			SolverSolves:    solver.Solves,
			Pools:           msgPools(last),
		})
		fmt.Printf("%-22s %-10s %8.3f us/activity  %8d allocs/op  peak %d goroutines\n",
			tc.name, tc.form, rep.Tiers[len(rep.Tiers)-1].UsPerActivity,
			res.AllocsPerOp(), eng.GoroutinesPeak())
	}
	return rep
}

// --- SimDag chain workload (mirrors BenchmarkSimDagScaling) -------------

func simdagReport(small bool) sweep.TierReport {
	type tier struct {
		name   string
		chains int
		rounds int
	}
	tiers := []tier{
		{"tasks-1k", 50, 10},
		{"tasks-10k", 500, 10},
		{"tasks-100k", 5000, 10},
	}
	if small {
		tiers = tiers[:2]
	}
	rep := sweep.TierReport{SchemaVersion: sweep.SchemaVersion, Benchmark: "simdag_scaling", Small: small}
	for _, tc := range tiers {
		tc := tc
		pf := scalingPlatform(tc.chains)
		var last *simdag.Simulation
		tasks := 0
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := simdag.New(pf, surf.DefaultConfig())
				tasks = buildDag(s, tc.chains, tc.rounds)
				if _, err := s.Simulate(); err != nil {
					fatal(fmt.Errorf("%s: %w", tc.name, err))
				}
				last = s
			}
		})
		eng := last.Engine()
		solver := last.Model().SolverStats()
		rep.Tiers = append(rep.Tiers, sweep.TierStat{
			Name:            tc.name,
			Form:            "dag",
			Activities:      tasks,
			UsPerActivity:   float64(res.NsPerOp()) / float64(tasks) / 1e3,
			AllocsPerOp:     res.AllocsPerOp(),
			BytesPerOp:      res.AllocedBytesPerOp(),
			Spawned:         eng.Spawned(),
			GoroutineSpawns: eng.GoroutineSpawns(),
			GoroutinesPeak:  eng.GoroutinesPeak(),
			SolverSolves:    solver.Solves,
			Pools:           modelPools(last.Model()),
		})
		fmt.Printf("%-22s %-10s %8.3f us/task      %8d allocs/op  peak %d goroutines\n",
			tc.name, "dag", rep.Tiers[len(rep.Tiers)-1].UsPerActivity,
			res.AllocsPerOp(), eng.GoroutinesPeak())
	}
	return rep
}

func buildDag(s *simdag.Simulation, nChains, rounds int) int {
	n := 0
	for i := 0; i < nChains; i++ {
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		bytes, flops := pairPayload(i)
		var prev *simdag.Task
		for r := 0; r < rounds; r++ {
			c := s.NewTask(fmt.Sprintf("c%d_%d", i, r), flops)
			must(c.Schedule(src))
			x := s.NewCommTask(fmt.Sprintf("x%d_%d", i, r), bytes)
			must(x.ScheduleComm(src, dst))
			if prev != nil {
				must(s.AddDependency(prev, c))
			}
			must(s.AddDependency(c, x))
			prev = x
			n += 2
		}
	}
	return n
}

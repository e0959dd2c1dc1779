// simgrid-run loads a JSON platform file and a JSON deployment file and
// executes the simulation — the reproduction's equivalent of running a
// SimGrid MSG binary with platform.xml and deployment.xml. A small
// built-in registry of generic process functions covers bag-of-tasks
// style applications:
//
//	master <ntasks> <flops> <bytes> <worker...>  — dispatch a bag
//	worker                                       — serve tasks (daemon)
//	pinger <dest> <count> <bytes>                — latency probe
//	ponger                                       — echo (daemon)
//	sleeper <seconds>                            — placeholder load
//
// Example:
//
//	go run ./cmd/simgrid-run -platform testdata/cluster.json \
//	    -deploy testdata/bag.json -gantt
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/deploy"
	"repro/internal/faults"
	"repro/internal/gantt"
	"repro/internal/instr"
	"repro/internal/msg"
	"repro/internal/platform"
	"repro/internal/surf"
)

const (
	workChannel   = 1
	resultChannel = 2
	pingChannel   = 3
	pongChannel   = 4
)

func main() {
	platformPath := flag.String("platform", "", "platform JSON file")
	deployPath := flag.String("deploy", "", "deployment JSON file")
	showGantt := flag.Bool("gantt", false, "print a Gantt chart after the run")
	width := flag.Int("width", 100, "gantt width")
	injectFaults := flag.Bool("faults", false,
		"inject a seeded host-failure campaign; failed processes restart on host recovery")
	faultSeed := flag.Int64("fault-seed", 1, "failure-campaign seed")
	faultMTBF := flag.Float64("fault-mtbf", 10, "mean time between failures per host, s")
	faultMTTR := flag.Float64("fault-mttr", 2, "mean time to repair per host, s")
	faultShape := flag.Float64("fault-shape", 0,
		"Weibull shape for failure lifetimes (0 = exponential)")
	faultHosts := flag.String("fault-hosts", "",
		"comma-separated hosts subject to failure (default: all platform hosts)")
	faultHorizon := flag.Float64("fault-horizon", 60, "no failure starts at or after this time, s")
	tracePath := flag.String("trace", "", "write a Paje trace of the run to this file")
	statsPath := flag.String("stats", "",
		`write a metrics-registry JSON snapshot to this file ("-" = stdout)`)
	profile := flag.Bool("profile", false,
		"print a wall-clock kernel phase profile after the run (report-only; host clock)")
	flag.Parse()
	if *platformPath == "" || *deployPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	pf, err := platform.LoadFile(*platformPath)
	if err != nil {
		log.Fatalf("loading platform: %v", err)
	}
	spec, err := deploy.LoadFile(*deployPath)
	if err != nil {
		log.Fatalf("loading deployment: %v", err)
	}

	env := msg.NewEnvironment(pf, surf.DefaultConfig())
	if *showGantt {
		env.Gantt = &gantt.Recorder{}
	}
	var traceFile *os.File
	if *tracePath != "" {
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		env.EnableTrace(instr.NewTrace(traceFile))
	}
	var prof *instr.Profiler
	if *profile {
		prof = instr.NewProfiler()
		env.Engine().SetProfiler(prof)
	}
	var injector *faults.Injector
	if *injectFaults {
		// Every process killed by a host failure respawns when the host
		// recovers: long-lived deployments survive the campaign.
		env.RestartOnRecovery = true
		hosts := strings.Split(*faultHosts, ",")
		if *faultHosts == "" {
			hosts = hosts[:0]
			for _, h := range pf.Hosts() {
				hosts = append(hosts, h.Name)
			}
		}
		dist, shape := faults.Exponential, 0.0
		if *faultShape > 0 {
			dist, shape = faults.Weibull, *faultShape
		}
		sched, err := faults.Compile(*faultSeed, faults.Params{
			Horizon: *faultHorizon,
			Classes: []faults.Class{{
				Name: "cli", Hosts: hosts,
				MTBF: *faultMTBF, MTTR: *faultMTTR,
				Dist: dist, Shape: shape,
			}},
		})
		if err != nil {
			log.Fatalf("compiling fault campaign: %v", err)
		}
		in, err := faults.Arm(sched, env.Model())
		if err != nil {
			log.Fatalf("arming fault campaign: %v", err)
		}
		injector = in
		in.OnEvent = func(ev faults.Event) {
			state := "down"
			if ev.Up {
				state = "up"
			}
			fmt.Printf("[%10.6f] fault: host %s %s\n", env.Now(), ev.Name, state)
		}
	}

	if err := deploy.Run(env, spec, registry()); err != nil {
		log.Fatalf("simulation: %v", err)
	}
	fmt.Printf("simulation finished at t=%.6f s\n", env.Now())
	if traceFile != nil {
		if err := env.Trace().Close(); err != nil {
			log.Fatalf("trace: %v", err)
		}
		if err := traceFile.Close(); err != nil {
			log.Fatalf("trace: %v", err)
		}
	}
	if *statsPath != "" {
		r := instr.NewRegistry()
		env.MetricsInto(r)
		if injector != nil {
			injector.MetricsInto(r)
		}
		r.SetPool("instr.event_pool", instr.EventPoolStats())
		out := os.Stdout
		if *statsPath != "-" {
			out, err = os.Create(*statsPath)
			if err != nil {
				log.Fatalf("stats: %v", err)
			}
			defer out.Close()
		}
		if err := r.WriteJSON(out); err != nil {
			log.Fatalf("stats: %v", err)
		}
	}
	if prof != nil {
		fmt.Println()
		if err := prof.WriteReport(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if *showGantt {
		fmt.Println()
		if err := env.Gantt.Render(os.Stdout, *width); err != nil {
			log.Fatal(err)
		}
	}
}

// registry returns the built-in generic process functions.
func registry() deploy.Registry {
	return deploy.Registry{
		"master":  master,
		"rmaster": rmaster,
		"worker":  worker,
		"pinger":  pinger,
		"ponger":  ponger,
		"sleeper": sleeper,
	}
}

// master <ntasks> <flops> <bytes> <worker hosts...>
func master(p *msg.Process, args []string) error {
	if len(args) < 4 {
		return fmt.Errorf("master needs: ntasks flops bytes worker...")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil {
		return err
	}
	flops, err := strconv.ParseFloat(args[1], 64)
	if err != nil {
		return err
	}
	bytes, err := strconv.ParseFloat(args[2], 64)
	if err != nil {
		return err
	}
	workers := args[3:]
	// Results are collected by a separate (non-daemon) process, the
	// standard MSG idiom: rendezvous puts to a busy worker would
	// otherwise deadlock against that worker's own result put. The
	// simulation ends when the collector got everything.
	if _, err := p.Spawn("collector", p.Host().Name, func(c *msg.Process) error {
		for i := 0; i < n; i++ {
			if _, err := c.Get(resultChannel); err != nil {
				return err
			}
		}
		fmt.Printf("[%10.6f] master: %d results collected\n", c.Now(), n)
		return nil
	}); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		t := msg.NewTask(fmt.Sprintf("job%03d", i), flops, bytes)
		if err := p.Put(t, workers[i%len(workers)], workChannel); err != nil {
			return err
		}
	}
	return nil
}

// rmaster <ntasks> <flops> <bytes> <worker hosts...> — the
// failure-aware master for -faults runs: every unacknowledged job is
// (re)dispatched with bounded per-attempt timeouts rotating over the
// workers (msg.Retry), results are deduplicated by job name, and the
// loop repeats until the whole bag is acknowledged. Pair it with
// daemon workers: a worker killed by a host failure restarts on
// recovery (RestartOnRecovery) and keeps serving.
func rmaster(p *msg.Process, args []string) error {
	if len(args) < 4 {
		return fmt.Errorf("rmaster needs: ntasks flops bytes worker...")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil {
		return err
	}
	flops, err := strconv.ParseFloat(args[1], 64)
	if err != nil {
		return err
	}
	bytes, err := strconv.ParseFloat(args[2], 64)
	if err != nil {
		return err
	}
	workers := args[3:]

	remaining := make(map[string]bool, n)
	order := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("job%03d", i)
		remaining[name] = true
		order = append(order, name)
	}
	if _, err := p.Spawn("collector", p.Host().Name, func(c *msg.Process) error {
		dry := 0
		for len(remaining) > 0 {
			res, err := c.GetWithTimeout(resultChannel, 2.0)
			if err != nil {
				if dry++; dry == 60 {
					return fmt.Errorf("no result for %d collect timeouts, %d jobs left", dry, len(remaining))
				}
				continue
			}
			dry = 0
			delete(remaining, strings.TrimPrefix(res.Name, "result:"))
		}
		fmt.Printf("[%10.6f] rmaster: all %d results collected\n", c.Now(), n)
		return nil
	}); err != nil {
		return err
	}
	rr := 0
	const maxRounds = 100
	for round := 0; len(remaining) > 0; round++ {
		if round == maxRounds {
			return fmt.Errorf("bag not finished after %d rounds, %d jobs left", maxRounds, len(remaining))
		}
		for _, name := range order {
			if !remaining[name] {
				continue
			}
			name := name
			err := msg.Retry(p, msg.RetryPolicy{Attempts: 2 * len(workers), Backoff: 0.25}, func() error {
				wn := workers[rr%len(workers)]
				rr++
				return p.PutWithTimeout(msg.NewTask(name, flops, bytes), wn, workChannel, 1.0)
			})
			if err != nil {
				fmt.Printf("[%10.6f] rmaster: job %s undeliverable this round (%v)\n", p.Now(), name, err)
			}
		}
		if len(remaining) > 0 {
			if err := p.Sleep(1.0); err != nil {
				return err
			}
		}
	}
	return nil
}

// worker serves tasks forever: execute, return a small result.
func worker(p *msg.Process, args []string) error {
	for {
		task, err := p.Get(workChannel)
		if err != nil {
			return err
		}
		if err := p.Execute(task); err != nil {
			return err
		}
		res := msg.NewTask("result:"+task.Name, 0, 1e4)
		if err := p.Put(res, task.Source().Name, resultChannel); err != nil {
			return err
		}
	}
}

// pinger <dest> <count> <bytes>
func pinger(p *msg.Process, args []string) error {
	if len(args) < 3 {
		return fmt.Errorf("pinger needs: dest count bytes")
	}
	dest := args[0]
	count, err := strconv.Atoi(args[1])
	if err != nil {
		return err
	}
	bytes, err := strconv.ParseFloat(args[2], 64)
	if err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		t0 := p.Now()
		if err := p.Put(msg.NewTask("ping", 0, bytes), dest, pingChannel); err != nil {
			return err
		}
		if _, err := p.Get(pongChannel); err != nil {
			return err
		}
		fmt.Printf("[%10.6f] pinger: rtt %.6f s\n", p.Now(), p.Now()-t0)
	}
	return nil
}

// ponger echoes pings back.
func ponger(p *msg.Process, args []string) error {
	for {
		t, err := p.Get(pingChannel)
		if err != nil {
			return err
		}
		if err := p.Put(msg.NewTask("pong", 0, t.Bytes), t.Source().Name, pongChannel); err != nil {
			return err
		}
	}
}

// sleeper <seconds>
func sleeper(p *msg.Process, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("sleeper needs: seconds")
	}
	d, err := strconv.ParseFloat(args[0], 64)
	if err != nil {
		return err
	}
	return p.Sleep(d)
}

// Reference list schedulers. They only assign placements — execution
// stays with the simulation kernel — so they are interchangeable and a
// natural extension point for scheduling research (the SimDag use case
// in the paper). Both are deterministic: tasks are considered in
// creation order and hosts in the given order, with strict-improvement
// tie-breaks.

package simdag

import (
	"fmt"
	"math"
)

// ScheduleRoundRobin assigns unplaced compute tasks to hosts
// round-robin in creation order, then wires comm tasks between their
// neighbours' placements (see placeComms). The cheap baseline — and
// the right choice when the DAG is huge and placement quality is not
// the question (benchmarks).
func ScheduleRoundRobin(s *Simulation, hosts []string) error {
	if len(hosts) == 0 {
		return fmt.Errorf("simdag: no hosts to schedule on")
	}
	if err := placeParallel(s, hosts); err != nil {
		return err
	}
	i := 0
	for _, t := range s.tasks {
		if t.kind != Compute || t.state != NotScheduled {
			continue
		}
		if err := t.Schedule(hosts[i%len(hosts)]); err != nil {
			return err
		}
		i++
	}
	return placeComms(s)
}

// ScheduleMinMin is the classic min-min list-scheduling heuristic over
// a heterogeneous platform: repeatedly pick, among the compute tasks
// whose predecessors are all resolved, the (task, host) pair with the
// globally minimal estimated completion time, and commit it. Transfer
// costs are estimated from the platform routes (latency + bytes over
// the bottleneck bandwidth) for comm tasks directly feeding the
// candidate; the estimates only steer placement — the simulation
// itself runs the real contention model.
func ScheduleMinMin(s *Simulation, hosts []string) error {
	if len(hosts) == 0 {
		return fmt.Errorf("simdag: no hosts to schedule on")
	}
	// estOf recurses over predecessors: reject cycles up front instead
	// of overflowing the stack on a malformed graph.
	if err := s.checkCycles(); err != nil {
		return err
	}
	// Ptasks are placed first (greedy host sets), so computes that
	// depend on one can estimate through it below.
	if err := placeParallel(s, hosts); err != nil {
		return err
	}
	est, err := newEstimator(s.pf, hosts)
	if err != nil {
		return err
	}
	avail := make([]float64, est.n) // planned tail per distinct pool host

	estFin := make(map[*Task]float64)
	// estOf resolves a predecessor's estimated finish: a compute task's
	// committed estimate (or, for tasks placed outside this call —
	// pre-scheduled or already running after a watch point — the
	// recursive estimate on its assigned host), the max over
	// predecessors for Seq and Comm tasks (a comm's own wire time is
	// added per candidate host by the caller, where the destination is
	// known). Results are memoized per round — the memo is reset after
	// each placement — so diamond-shaped graphs stay polynomial.
	type memoEntry struct {
		v  float64
		ok bool
	}
	memo := make(map[*Task]memoEntry)
	var estOf func(t *Task) (float64, bool)
	estOf = func(t *Task) (float64, bool) {
		if t.terminal() {
			return t.finish, true
		}
		if v, ok := estFin[t]; ok {
			return v, true
		}
		if m, ok := memo[t]; ok {
			return m.v, m.ok
		}
		var v float64
		ok := true
		if (t.kind == Compute && t.host == "") || (t.kind == Parallel && len(t.phosts) == 0) {
			ok = false // not placed: the task is not resolvable yet
		} else {
			for it := t.predIter(); ; {
				p, pok2 := it.next()
				if !pok2 {
					break
				}
				pv, pok := estOf(p)
				if !pok {
					ok = false
					break
				}
				if pv > v {
					v = pv
				}
			}
			if ok && t.kind == Compute {
				v += est.compute(t.amount, est.ref(t.host))
			}
			if ok && t.kind == Parallel {
				// Crude coupled estimate: total work over the pooled
				// power of the assigned host set.
				sum := 0.0
				for _, h := range t.phosts {
					sum += est.power[est.ref(h).i]
				}
				if sum > 0 {
					v += t.amount / sum
				}
			}
		}
		memo[t] = memoEntry{v, ok}
		return v, ok
	}

	// commIn is a direct comm predecessor of the candidate: its
	// producer-side estimate and source host, resolved once per round.
	type commIn struct {
		v     float64
		src   hostRef
		bytes float64
	}
	var comms []commIn

	var pending []*Task
	for _, t := range s.tasks {
		if t.kind == Compute && t.state == NotScheduled {
			pending = append(pending, t)
		}
	}
	for len(pending) > 0 {
		bestECT := math.Inf(1)
		bestIdx, bestHost := -1, hostRef{}
		for idx, t := range pending {
			// Earliest the task's inputs can be complete, excluding the
			// final wire hop of direct comm predecessors (host-dependent).
			eligible := true
			base := 0.0
			comms = comms[:0]
			for it := t.predIter(); ; {
				p, more := it.next()
				if !more {
					break
				}
				v, ok := estOf(p)
				if !ok {
					eligible = false
					break
				}
				if p.kind == Comm {
					comms = append(comms, commIn{v, est.ref(commSrcHost(p)), p.amount})
				} else if v > base {
					base = v
				}
			}
			if !eligible {
				continue
			}
			for _, h := range est.pool {
				arrive := base
				for _, c := range comms {
					if v := c.v + est.transfer(c.src, h, c.bytes); v > arrive {
						arrive = v
					}
				}
				start := arrive
				if a := avail[h.i]; a > start {
					start = a
				}
				ect := start + est.compute(t.amount, h)
				if ect < bestECT {
					bestECT, bestIdx, bestHost = ect, idx, h
				}
			}
		}
		if bestIdx < 0 {
			return fmt.Errorf("simdag: %d compute tasks unschedulable (dangling dependencies)", len(pending))
		}
		t := pending[bestIdx]
		if err := t.Schedule(bestHost.name); err != nil {
			return err
		}
		estFin[t] = bestECT
		avail[bestHost.i] = bestECT
		pending = append(pending[:bestIdx], pending[bestIdx+1:]...)
		// The placement may have made downstream tasks resolvable: drop
		// the round's memo (committed estimates live in estFin).
		clear(memo)
	}
	return placeComms(s)
}

// commSrcHost returns the placement of a comm task's producing compute
// (or ptask — by convention its first host) predecessor ("" when there
// is none yet).
func commSrcHost(c *Task) string {
	for it := c.predIter(); ; {
		p, ok := it.next()
		if !ok {
			return ""
		}
		if h := placementHost(p); h != "" {
			return h
		}
	}
}

// placementHost reduces a task's placement to one representative host:
// a compute's host, a ptask's first host, "" otherwise.
func placementHost(t *Task) string {
	switch t.kind {
	case Compute:
		return t.host
	case Parallel:
		if len(t.phosts) > 0 {
			return t.phosts[0]
		}
	}
	return ""
}

// placeComms assigns every unplaced comm task's endpoints from its
// placed compute neighbours: source from the producing predecessor,
// destination from the consuming successor. A missing producer
// (stage-in data) collapses onto the destination; a missing consumer
// onto the source — both model a free local touch.
func placeComms(s *Simulation) error {
	for _, t := range s.tasks {
		if t.kind != Comm || t.state != NotScheduled {
			continue
		}
		src := commSrcHost(t)
		dst := ""
		for it := t.succIter(); ; {
			p, ok := it.next()
			if !ok {
				break
			}
			if h := placementHost(p); h != "" {
				dst = h
				break
			}
		}
		if src == "" {
			src = dst
		}
		if dst == "" {
			dst = src
		}
		if src == "" {
			return fmt.Errorf("simdag: comm task %q has no placed compute neighbour", t.name)
		}
		if err := t.ScheduleComm(src, dst); err != nil {
			return err
		}
	}
	return nil
}

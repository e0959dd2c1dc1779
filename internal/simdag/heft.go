// HEFT — Heterogeneous Earliest Finish Time (Topcuoglu, Hariri, Wu,
// IEEE TPDS 2002) — as the second reference list scheduler next to
// min-min. Tasks are ranked by "upward rank" (mean execution cost plus
// the most expensive mean-cost path to an exit task) and placed, in
// decreasing rank order, on the host minimizing the earliest finish
// time under an insertion-based policy (a task may slide into an idle
// gap between two already-planned tasks).
//
// The repo's DAGs reify data movement as Comm task nodes, so the
// paper's edge weights map onto comm-task nodes: a comm node
// contributes its mean transfer estimate to ranks, and its
// placement-dependent cost (zero when producer and consumer land on
// the same host) to ready times. Cost hooks (HEFTOptions) let
// scheduling research — and the reference test, which replays the
// paper's canonical 10-task/3-processor example — substitute arbitrary
// cost tables for the default flops/power and latency+bytes/bandwidth
// estimates. Estimates only steer placement: execution always runs the
// real contention model.

package simdag

import (
	"fmt"
	"math"
	"sort"
)

// HEFTOptions customizes HEFT's cost model. Nil fields get defaults.
type HEFTOptions struct {
	// Cost estimates a compute task's execution time on a host.
	// Default: flops / host power.
	Cost func(t *Task, host string) float64
	// CommCost estimates a comm task's transfer time from the
	// producer's host src to a candidate consumer host dst. Default:
	// route latency + bytes / bottleneck bandwidth; 0 when src == dst
	// (or src is unknown).
	CommCost func(c *Task, src, dst string) float64
	// MeanCommCost is the placement-independent transfer estimate used
	// in upward ranks (the paper's c̄). Default: CommCost averaged over
	// the distinct ordered host pairs of the pool.
	MeanCommCost func(c *Task) float64
}

// PlannedTask is one entry of HEFT's placement plan: the task, its
// chosen host, and the planned (estimated) execution interval.
type PlannedTask struct {
	Task          *Task
	Host          string
	Start, Finish float64
}

// HEFTStats reports the scheduling-analysis byproducts of a HEFT pass:
// the mean-cost critical path, the DAG's per-level parallelism profile,
// and the full placement plan in scheduling (rank) order.
type HEFTStats struct {
	// CriticalPath is the largest upward rank: the mean-cost length of
	// the DAG's critical path (the paper's lower-bound yardstick).
	CriticalPath float64
	// PlannedMakespan is the latest planned finish time — HEFT's own
	// estimate, not the simulated makespan.
	PlannedMakespan float64
	// Levels counts schedulable units (computes and ptasks) per depth
	// level: Levels[0] units have no unit ancestor, and so on.
	Levels []int
	// MaxParallelism and MeanParallelism summarize Levels: the widest
	// level, and units divided by the number of levels.
	MaxParallelism  int
	MeanParallelism float64
	// Plan lists the placed units in scheduling order.
	Plan []PlannedTask

	// sim and ranks back RankOf without freezing a table into the
	// public schema: ranks is indexed by task creation index, NaN for
	// tasks the pass did not rank.
	sim   *Simulation
	ranks []float64
}

// RankOf returns a task's upward rank from the last ScheduleHEFTStats
// plan lookup table, or NaN when the task was not ranked.
func (st *HEFTStats) RankOf(t *Task) float64 {
	if st == nil || t == nil || t.sim != st.sim || int(t.id) >= len(st.ranks) {
		return math.NaN()
	}
	return st.ranks[t.id]
}

// ScheduleHEFT places unscheduled compute tasks (and, via the shared
// pre-pass, ptasks) with the HEFT heuristic, then wires comm tasks
// between the placements (placeComms).
func ScheduleHEFT(s *Simulation, hosts []string) error {
	_, err := ScheduleHEFTStats(s, hosts, nil)
	return err
}

// ScheduleHEFTStats is ScheduleHEFT returning the rank/plan/parallelism
// analysis alongside.
func ScheduleHEFTStats(s *Simulation, hosts []string, opts *HEFTOptions) (*HEFTStats, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("simdag: no hosts to schedule on")
	}
	if err := s.checkCycles(); err != nil {
		return nil, err
	}
	for _, h := range hosts {
		if s.pf.Host(h) == nil {
			return nil, fmt.Errorf("simdag: unknown host %q", h)
		}
	}
	if err := placeParallel(s, hosts); err != nil {
		return nil, err
	}
	est, err := newEstimator(s.pf, hosts)
	if err != nil {
		return nil, err
	}
	o := &heftOpts{est: est}
	if opts != nil {
		o.hooks = *opts
	}

	topo, err := topoOrder(s)
	if err != nil {
		return nil, err
	}

	// Upward ranks over the full graph, in reverse topological order:
	// rank(t) = weight(t) + max over successors rank(succ), with comm
	// nodes weighing their mean transfer estimate (the paper's
	// c̄(t,succ) folded into the reified edge node). Tasks outside topo
	// (terminal ones) keep NaN, which never wins a max.
	ranks := make([]float64, len(s.tasks))
	for i := range ranks {
		ranks[i] = math.NaN()
	}
	for i := len(topo) - 1; i >= 0; i-- {
		t := topo[i]
		best := 0.0
		for it := t.succIter(); ; {
			succ, ok := it.next()
			if !ok {
				break
			}
			if r := ranks[succ.id]; r > best {
				best = r
			}
		}
		ranks[t.id] = o.weight(t) + best
	}
	cp := 0.0
	for _, t := range topo {
		if ranks[t.id] > cp {
			cp = ranks[t.id]
		}
	}

	// Units: everything HEFT plans an interval for — unplaced computes
	// (to be placed), plus already-placed computes and ptasks whose
	// spans must block their hosts. Decreasing rank order; near-ties
	// (an ulp apart from equivalent mean-cost paths) fall back to
	// creation order (the deterministic tie-break) so the walk matches
	// the paper's.
	var units []*Task
	for _, t := range topo {
		switch t.kind {
		case Compute:
			if t.state == NotScheduled || t.state == Schedulable {
				units = append(units, t)
			}
		case Parallel:
			if t.state == Schedulable {
				units = append(units, t)
			}
		}
	}
	sort.SliceStable(units, func(i, j int) bool {
		ri, rj := ranks[units[i].id], ranks[units[j].id]
		if d := ri - rj; d > rankTieEps || d < -rankTieEps {
			return ri > rj
		}
		return units[i].id < units[j].id
	})

	p := &heftPlanner{
		o:   o,
		aft: make([]heftFinish, len(s.tasks)),
	}
	st := &HEFTStats{CriticalPath: cp, sim: s, ranks: ranks}
	for _, t := range units {
		var pl PlannedTask
		if t.kind == Parallel {
			pl = p.placePtask(t)
		} else if t.state == Schedulable {
			// Pre-placed compute: keep the host, plan around it.
			pl = p.placeFixed(t)
		} else {
			var err error
			pl, err = p.placeCompute(t)
			if err != nil {
				return nil, err
			}
		}
		st.Plan = append(st.Plan, pl)
		if pl.Finish > st.PlannedMakespan {
			st.PlannedMakespan = pl.Finish
		}
	}
	if err := placeComms(s); err != nil {
		return nil, err
	}

	st.Levels = unitLevels(topo, len(s.tasks))
	for _, n := range st.Levels {
		if n > st.MaxParallelism {
			st.MaxParallelism = n
		}
		st.MeanParallelism += float64(n)
	}
	if len(st.Levels) > 0 {
		st.MeanParallelism /= float64(len(st.Levels))
	}
	return st, nil
}

// rankTieEps bounds the rank difference treated as a tie: equivalent
// mean-cost paths can differ by an ulp of float summation order.
const rankTieEps = 1e-9

// heftOpts is the resolved cost model: a user hook where one is set,
// the pass's estimator otherwise.
type heftOpts struct {
	hooks HEFTOptions
	est   *estimator
}

// cost is a compute's execution-time estimate on h.
func (o *heftOpts) cost(t *Task, h hostRef) float64 {
	if o.hooks.Cost != nil {
		return o.hooks.Cost(t, h.name)
	}
	return o.est.compute(t.amount, h)
}

// commCost is a comm's transfer estimate from src to dst.
func (o *heftOpts) commCost(c *Task, src, dst hostRef) float64 {
	if o.hooks.CommCost != nil {
		return o.hooks.CommCost(c, src.name, dst.name)
	}
	return o.est.transfer(src, dst, c.amount)
}

// meanComm is a comm's placement-independent estimate: commCost
// averaged over the distinct ordered pairs of pool positions.
func (o *heftOpts) meanComm(c *Task) float64 {
	if o.hooks.MeanCommCost != nil {
		return o.hooks.MeanCommCost(c)
	}
	if o.hooks.CommCost == nil {
		return o.est.meanTransfer(c.amount)
	}
	pool := o.est.pool
	sum, n := 0.0, 0
	for i := range pool {
		for j := range pool {
			if i == j {
				continue
			}
			sum += o.hooks.CommCost(c, pool[i].name, pool[j].name)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// weight is a task's rank contribution: mean execution cost for
// computes, mean transfer estimate for comms, the coupled estimate for
// placed ptasks, zero for seq points.
func (o *heftOpts) weight(t *Task) float64 {
	switch t.kind {
	case Compute:
		sum := 0.0
		for _, h := range o.est.pool {
			sum += o.cost(t, h)
		}
		return sum / float64(len(o.est.pool))
	case Comm:
		return o.meanComm(t)
	case Parallel:
		sum := 0.0
		for _, h := range t.phosts {
			sum += o.est.power[o.est.ref(h).i]
		}
		if sum <= 0 {
			return 0
		}
		return t.amount / sum
	default:
		return 0
	}
}

// topoOrder returns every non-terminal task in a topological order
// (Kahn over live in-degrees; ready queue drained in creation order).
func topoOrder(s *Simulation) ([]*Task, error) {
	order := make([]*Task, 0, len(s.tasks))
	for _, t := range s.tasks {
		if t.terminal() {
			t.indeg = -1
			continue
		}
		c := 0
		for it := t.predIter(); ; {
			p, ok := it.next()
			if !ok {
				break
			}
			if !p.terminal() {
				c++
			}
		}
		t.indeg = c
		if c == 0 {
			order = append(order, t)
		}
	}
	for i := 0; i < len(order); i++ {
		for it := order[i].succIter(); ; {
			succ, ok := it.next()
			if !ok {
				break
			}
			if succ.indeg > 0 {
				succ.indeg--
				if succ.indeg == 0 {
					order = append(order, succ)
				}
			}
		}
	}
	live := 0
	for _, t := range s.tasks {
		if !t.terminal() {
			live++
		}
	}
	if len(order) != live {
		return nil, fmt.Errorf("%w involving %d tasks", ErrCycle, live-len(order))
	}
	return order, nil
}

// unitLevels computes the per-level parallelism profile: a unit
// (compute or ptask) sits one level below its deepest unit ancestor,
// with comm and seq nodes transparent.
func unitLevels(topo []*Task, ntasks int) []int {
	depth := make([]int, ntasks) // by creation index
	var levels []int
	for _, t := range topo {
		d := 0 // deepest unit-ancestor level + 1, carried through comm/seq
		for it := t.predIter(); ; {
			p, ok := it.next()
			if !ok {
				break
			}
			pd := depth[p.id]
			switch p.kind {
			case Compute, Parallel:
				pd++
			}
			if pd > d {
				d = pd
			}
		}
		depth[t.id] = d
		if t.kind == Compute || t.kind == Parallel {
			for len(levels) <= d {
				levels = append(levels, 0)
			}
			levels[d]++
		}
	}
	return levels
}

// heftSpan is one planned busy interval on a host.
type heftSpan struct{ start, end float64 }

// heftFinish is a task's memoized finish estimate.
type heftFinish struct {
	v   float64
	set bool
}

// heftInput is one predecessor's share of a task's ready time: its
// finish estimate and, for a comm predecessor, the comm and its
// producer's host, whose transfer cost depends on the candidate host.
type heftInput struct {
	v    float64
	comm *Task
	src  hostRef
}

// heftPlanner carries the placement state of one HEFT pass.
type heftPlanner struct {
	o     *heftOpts
	slots [][]heftSpan // per-host planned intervals (by estimator index), sorted by start
	aft   []heftFinish // planned (or actual) finish, by task creation index
	ins   []heftInput  // scratch for inputs
	// unordered: some span has a NaN start (only a NaN cost can do
	// that), so fit cannot binary-search the spans.
	unordered bool
}

// aftOf resolves a predecessor's finish estimate: terminal tasks
// report their actual finish, planned units their planned finish, seq
// points pass their deepest predecessor through, running tasks
// estimate start + weight, and comm nodes resolve to their producer
// plus the mean transfer estimate (callers that know the candidate
// host use readyOn instead for host-exact comm costs).
func (p *heftPlanner) aftOf(t *Task) float64 {
	if t.terminal() {
		return t.finish
	}
	if f := p.aft[t.id]; f.set {
		return f.v
	}
	v := 0.0
	switch t.kind {
	case Seq:
		for it := t.predIter(); ; {
			pr, ok := it.next()
			if !ok {
				break
			}
			if a := p.aftOf(pr); a > v {
				v = a
			}
		}
	case Comm:
		src := ""
		for it := t.predIter(); ; {
			pr, ok := it.next()
			if !ok {
				break
			}
			if a := p.aftOf(pr); a > v {
				v = a
			}
			if src == "" {
				src = placementHost(pr)
			}
		}
		if src != "" {
			v += p.o.meanComm(t)
		}
	default:
		// Unplanned compute/ptask (e.g. running): preds + own weight.
		for it := t.predIter(); ; {
			pr, ok := it.next()
			if !ok {
				break
			}
			if a := p.aftOf(pr); a > v {
				v = a
			}
		}
		if t.state == Running {
			v = t.start
		}
		v += p.o.weight(t)
	}
	p.aft[t.id] = heftFinish{v, true}
	return v
}

// inputs collects a task's ready-time inputs, host-independent parts
// resolved once: direct predecessors contribute their finish, comm
// predecessors their producer's finish (the transfer is added per
// candidate host by readyOn). The slice is reused by the next call.
func (p *heftPlanner) inputs(t *Task) []heftInput {
	ins := p.ins[:0]
	for it := t.predIter(); ; {
		pr, ok := it.next()
		if !ok {
			break
		}
		if pr.kind != Comm {
			ins = append(ins, heftInput{v: p.aftOf(pr)})
			continue
		}
		in := heftInput{comm: pr}
		src := ""
		for it2 := pr.predIter(); ; {
			pp, ok2 := it2.next()
			if !ok2 {
				break
			}
			if a := p.aftOf(pp); a > in.v {
				in.v = a
			}
			if src == "" {
				src = placementHost(pp)
			}
		}
		in.src = p.o.est.ref(src)
		ins = append(ins, in)
	}
	p.ins = ins
	return ins
}

// readyOn is the earliest a task's inputs can be complete on candidate
// host h: the latest input, comm inputs paying the host-exact transfer
// cost (zero when the producer already sits on h).
func (p *heftPlanner) readyOn(ins []heftInput, h hostRef) float64 {
	ready := 0.0
	for _, in := range ins {
		v := in.v
		if in.comm != nil {
			v += p.o.commCost(in.comm, in.src, h)
		}
		if v > ready {
			ready = v
		}
	}
	return ready
}

// spans returns h's planned intervals.
func (p *heftPlanner) spans(h hostRef) []heftSpan {
	if h.i < len(p.slots) {
		return p.slots[h.i]
	}
	return nil
}

// fit finds the earliest start ≥ ready of a length-w interval on host
// h under the insertion policy: the first idle gap (including the open
// tail) that can hold it. A gap ending at a span that starts before
// ready cannot hold a non-negative length, so a binary search over the
// start-sorted spans skips those (a negative length, or a NaN start
// that unsorts the spans, scans them all).
func (p *heftPlanner) fit(h hostRef, ready, w float64) float64 {
	spans := p.spans(h)
	first := 0
	if !(w < 0) && !p.unordered {
		first = sort.Search(len(spans), func(i int) bool { return !(spans[i].start < ready) })
	}
	prevEnd := 0.0
	if first > 0 {
		prevEnd = spans[first-1].end
	}
	for _, sp := range spans[first:] {
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

// occupy inserts [start, start+w) into h's interval list, keeping it
// sorted.
func (p *heftPlanner) occupy(h hostRef, start, w float64) {
	for len(p.slots) <= h.i {
		p.slots = append(p.slots, nil)
	}
	if math.IsNaN(start) {
		p.unordered = true
	}
	spans := p.slots[h.i]
	i := len(spans)
	for j, sp := range spans {
		if start < sp.start {
			i = j
			break
		}
	}
	spans = append(spans, heftSpan{})
	copy(spans[i+1:], spans[i:])
	spans[i] = heftSpan{start, start + w}
	p.slots[h.i] = spans
}

// placeCompute commits an unplaced compute to its min-EFT host.
func (p *heftPlanner) placeCompute(t *Task) (PlannedTask, error) {
	bestEFT, bestStart := math.Inf(1), 0.0
	best := hostRef{i: -1}
	ins := p.inputs(t)
	for _, h := range p.o.est.pool {
		ready := p.readyOn(ins, h)
		w := p.o.cost(t, h)
		start := p.fit(h, ready, w)
		if eft := start + w; eft < bestEFT {
			bestEFT, bestStart, best = eft, start, h
		}
	}
	if err := t.Schedule(best.name); err != nil {
		return PlannedTask{}, err
	}
	p.occupy(best, bestStart, bestEFT-bestStart)
	p.aft[t.id] = heftFinish{bestEFT, true}
	return PlannedTask{Task: t, Host: best.name, Start: bestStart, Finish: bestEFT}, nil
}

// placeFixed plans a compute whose host is already fixed (pre-placed
// before the HEFT call): same EFT machinery, one candidate.
func (p *heftPlanner) placeFixed(t *Task) PlannedTask {
	h := p.o.est.ref(t.host)
	ready := p.readyOn(p.inputs(t), h)
	w := p.o.cost(t, h)
	start := p.fit(h, ready, w)
	p.occupy(h, start, w)
	p.aft[t.id] = heftFinish{start + w, true}
	return PlannedTask{Task: t, Host: h.name, Start: start, Finish: start + w}
}

// placePtask plans a (pre-placed) ptask: it must hold all its hosts
// simultaneously, so it starts at the latest of its ready time and
// every member host's planned tail (append-only — no insertion across
// k hosts), and occupies the interval on each.
func (p *heftPlanner) placePtask(t *Task) PlannedTask {
	start := p.readyOn(p.inputs(t), p.o.est.ref(t.phosts[0]))
	for _, name := range t.phosts {
		if spans := p.spans(p.o.est.ref(name)); len(spans) > 0 {
			if tail := spans[len(spans)-1].end; tail > start {
				start = tail
			}
		}
	}
	w := p.o.weight(t)
	for _, name := range t.phosts {
		p.occupy(p.o.est.ref(name), start, w)
	}
	p.aft[t.id] = heftFinish{start + w, true}
	return PlannedTask{Task: t, Host: t.phosts[0], Start: start, Finish: start + w}
}

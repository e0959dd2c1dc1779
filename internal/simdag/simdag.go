// Package simdag implements the paper's fourth user interface, SimDag:
// scheduling of task graphs (DAGs) on a simulated platform, the
// workload class of workflow systems and list-scheduling research.
//
// Unlike MSG/GRAS/SMPI processes, DAG tasks are pure kernel-level
// activities: a scheduled task whose dependencies complete is started
// automatically as a surf action attached through completion callbacks
// — no core.Process is ever spawned, so a 100k-task workflow costs
// zero goroutines and the simulation is driven by the kernel alone
// (core.Engine.RunUntilIdle).
//
// Tasks are typed — computations (flops on a host), end-to-end
// communications (bytes between two hosts), and sequential "no-op"
// synchronization points — and move through the state machine
//
//	NotScheduled → Schedulable → Runnable → Running → Done/Failed
//
// NotScheduled tasks have no placement; Schedule/ScheduleComm makes
// them Schedulable; a Schedulable task whose last dependency finishes
// becomes Runnable and is started by the next same-instant release
// sweep (one batched sweep per instant, however many tasks k
// same-instant completions free); Running tasks own a surf action;
// completion yields Done, and a resource failure (or a failed
// dependency) yields Failed with the dependents cancelled.
package simdag

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/gantt"
	"repro/internal/platform"
	"repro/internal/surf"
)

// Errors reported by DAG construction and execution.
var (
	// ErrCycle reports that the dependency graph is not acyclic.
	ErrCycle = errors.New("simdag: dependency cycle")
	// ErrDependencyFailed marks a task cancelled because a (transitive)
	// dependency failed.
	ErrDependencyFailed = errors.New("simdag: dependency failed")
	// ErrBadState reports an operation illegal in the task's state.
	ErrBadState = errors.New("simdag: operation illegal in this state")
	// ErrDuplicate reports an already-declared dependency edge.
	ErrDuplicate = errors.New("simdag: duplicate dependency")
	// ErrBadSize reports a workflow file declaring a task amount (work,
	// runtime or data size) that is NaN, infinite or negative.
	ErrBadSize = errors.New("simdag: size is NaN, infinite or negative")
	// ErrHostFailed is re-exported from surf: a compute task's host
	// turned off mid-run (state trace).
	ErrHostFailed = surf.ErrHostFailed
	// ErrLinkFailed is re-exported from surf: a link on a comm task's
	// route turned off mid-run.
	ErrLinkFailed = surf.ErrLinkFailed
)

// Kind is the task type.
type Kind int

// Task kinds.
const (
	// Compute burns flops on one host.
	Compute Kind = iota
	// Comm moves bytes end-to-end between two hosts over the platform's
	// route (latency + MaxMin bandwidth share, like any transfer).
	Comm
	// Seq is a zero-work synchronization point (fan-in/fan-out barrier);
	// it needs no placement and completes the instant it is released.
	Seq
	// Parallel is a ptask (SimGrid's L07 model): one activity consuming
	// CPU on several hosts and bandwidth between them simultaneously,
	// completing when the whole coupled allocation has been delivered.
	Parallel
)

func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Comm:
		return "comm"
	case Seq:
		return "seq"
	case Parallel:
		return "ptask"
	default:
		return "unknown"
	}
}

// State is a task's position in the lifecycle.
type State int

// Task states, in lifecycle order.
const (
	// NotScheduled: created, no placement assigned yet.
	NotScheduled State = iota
	// Schedulable: placement assigned, waiting on dependencies.
	Schedulable
	// Runnable: dependencies satisfied, queued for the release sweep.
	Runnable
	// Running: surf action in flight.
	Running
	// Done: completed successfully.
	Done
	// Failed: resource failure, or a dependency failed (cancelled).
	Failed
)

func (s State) String() string {
	switch s {
	case NotScheduled:
		return "not-scheduled"
	case Schedulable:
		return "schedulable"
	case Runnable:
		return "runnable"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s)) //lint:allow hot-sprintf cold path: unknown-state debug rendering, never on the task path
	}
}

// Task is one node of the DAG.
type Task struct {
	sim    *Simulation
	name   string
	kind   Kind
	amount float64 // flops (Compute) or bytes (Comm)
	state  State

	// Dependency adjacency. The first edge of each direction is stored
	// inline (pred0/succ0) — most workflow tasks have degree 1, so the
	// common walk is a single field read — and the overflow lives as
	// heads/tails of index-linked lists in the simulation's edge arena
	// (see depEdge): a 100k-edge DAG costs a handful of arena growths
	// instead of two small slice allocations per task. 0 means empty;
	// indices are 1-based.
	pred0, succ0       *Task
	predHead, predTail int32
	succHead, succTail int32
	waitingOn          int // predecessors not yet Done

	host     string // Compute placement
	src, dst string // Comm placement
	priority float64

	// Parallel (ptask) payload and placement: pflops[i] runs on
	// phosts[i], pbytes[i][j] moves from phosts[i] to phosts[j]
	// (see NewParallelTask / ScheduleParallel in ptask.go).
	phosts []string
	pflops []float64
	pbytes [][]float64

	// Resolved placement handles, filled by Schedule/ScheduleComm so
	// start() touches no string-keyed maps: shared per host / per pair
	// for the model's lifetime.
	execH *surf.HostHandle
	commH *surf.RouteHandle // nil when the pair has no route: resolved at start, failing the task

	action  *surf.Action
	start   float64
	finish  float64
	err     error
	watched bool

	indeg int // scratch for the cycle check

	pajeC string // trace container alias, minted at first state change

	// Data is a free cookie for schedulers and loaders.
	Data any
}

// Name returns the task name.
func (t *Task) Name() string { return t.name }

// Kind returns the task type.
func (t *Task) Kind() Kind { return t.kind }

// State returns the task's lifecycle state.
func (t *Task) State() State { return t.state }

// Amount returns the work payload (flops or bytes).
func (t *Task) Amount() float64 { return t.amount }

// Host returns the compute placement ("" before Schedule).
func (t *Task) Host() string { return t.host }

// Endpoints returns the comm placement ("","" before ScheduleComm).
func (t *Task) Endpoints() (src, dst string) { return t.src, t.dst }

// Start returns the virtual time the task started running.
func (t *Task) Start() float64 { return t.start }

// Finish returns the virtual completion time (valid once terminal).
func (t *Task) Finish() float64 { return t.finish }

// Err returns the failure cause (nil unless Failed).
func (t *Task) Err() error { return t.err }

// Dependencies returns the task's predecessors (a fresh slice; the
// adjacency itself lives in the simulation's edge arena).
func (t *Task) Dependencies() []*Task {
	var out []*Task
	for it := t.predIter(); ; {
		p, ok := it.next()
		if !ok {
			break
		}
		out = append(out, p)
	}
	return out
}

// Dependents returns the task's successors (a fresh slice).
func (t *Task) Dependents() []*Task {
	var out []*Task
	for it := t.succIter(); ; {
		p, ok := it.next()
		if !ok {
			break
		}
		out = append(out, p)
	}
	return out
}

// hasPreds reports whether the task has any predecessor.
func (t *Task) hasPreds() bool { return t.pred0 != nil }

// hasSuccs reports whether the task has any successor.
func (t *Task) hasSuccs() bool { return t.succ0 != nil }

// terminal reports whether the task reached Done or Failed.
func (t *Task) terminal() bool { return t.state == Done || t.state == Failed }

// Watch marks the task as a watch point: when it reaches Done or
// Failed, the running Simulate call returns (with the task in its
// result) instead of draining the whole DAG — the caller can inspect,
// reschedule, and call Simulate again to resume.
func (t *Task) Watch() { t.watched = true }

// SetPriority sets the MaxMin sharing weight of the task's future
// action (1 by default). Must be called before the task starts.
func (t *Task) SetPriority(w float64) error {
	if t.state != NotScheduled && t.state != Schedulable {
		return fmt.Errorf("%w: SetPriority on %s task %q", ErrBadState, t.state, t.name)
	}
	if w > 0 {
		t.priority = w
	}
	return nil
}

// Schedule assigns a compute (or re-assigns a not-yet-released) task to
// a host, making it Schedulable.
func (t *Task) Schedule(host string) error {
	if t.kind != Compute {
		return fmt.Errorf("simdag: Schedule on %s task %q (want compute)", t.kind, t.name)
	}
	if t.state != NotScheduled && t.state != Schedulable {
		return fmt.Errorf("%w: Schedule on %s task %q", ErrBadState, t.state, t.name)
	}
	h := t.sim.model.HostHandle(host)
	if h == nil {
		return fmt.Errorf("simdag: unknown host %q", host)
	}
	t.host = host
	t.execH = h
	t.state = Schedulable
	return nil
}

// ScheduleComm assigns a communication task's endpoints, making it
// Schedulable. src == dst is legal and models a local (free) transfer.
func (t *Task) ScheduleComm(src, dst string) error {
	if t.kind != Comm {
		return fmt.Errorf("simdag: ScheduleComm on %s task %q (want comm)", t.kind, t.name)
	}
	if t.state != NotScheduled && t.state != Schedulable {
		return fmt.Errorf("%w: ScheduleComm on %s task %q", ErrBadState, t.state, t.name)
	}
	if t.sim.pf.Host(src) == nil {
		return fmt.Errorf("simdag: unknown host %q", src)
	}
	if t.sim.pf.Host(dst) == nil {
		return fmt.Errorf("simdag: unknown host %q", dst)
	}
	t.src, t.dst = src, dst
	// Resolve the route handle eagerly when possible; a pair with no
	// route keeps the nil handle and fails at start time, preserving
	// the "scheduling succeeds, execution fails" contract.
	t.commH, _ = t.sim.model.RouteHandle(src, dst)
	t.state = Schedulable
	return nil
}

// Simulation owns a DAG of tasks and the platform it runs on. Create
// one with New, build the graph, schedule tasks, then call Simulate.
type Simulation struct {
	eng   *core.Engine
	model *surf.Model
	pf    *platform.Platform
	tasks []*Task

	ready      []*Task // Runnable tasks awaiting the release sweep
	draining   bool    // inside startReady: don't arm the sweep
	sweep      *core.Timer
	sweepArmed bool
	depsDirty  bool // an edge was added since the last cycle check

	// Reschedule policy (see SetReschedulePolicy): host pool, and the
	// re-armable timer batching one min-min pass per instant.
	reschedHosts []string
	resched      *core.Timer
	reschedArmed bool

	// depEdges is the arena backing every task's dependency lists,
	// walked through depIter. Entries are never removed — tasks live as
	// long as their simulation.
	depEdges depArena

	// taskArena chunk-allocates the Task structs themselves: tasks are
	// only ever created through New*Task and live as long as the
	// simulation, so block allocation keeps a 100k-task DAG to a few
	// dozen allocations and lays tasks out contiguously for the state
	// sweeps. The returned pointers are stable.
	taskArena []Task

	watchHits []*Task
	nDone     int
	nFailed   int

	// Observability: the task band of a Paje trace (nil when off) and
	// the always-on count of failure-diverted reschedules.
	trace       *dagTrace
	reschedules uint64

	// Gantt, when non-nil, records every finished task as a closed
	// interval: compute tasks on their host's track, comm tasks on the
	// source host's track (comm kind), so the chart reads one row per
	// host.
	Gantt *gantt.Recorder

	// OnTaskStateChange, when non-nil, is invoked (in kernel context)
	// at every task state transition — the observer hook the
	// determinism suite logs events through.
	OnTaskStateChange func(*Task)
}

// New builds a DAG simulation on a platform with the given network
// model configuration (surf.DefaultConfig for the paper's calibration).
func New(pf *platform.Platform, cfg surf.Config) *Simulation {
	eng := core.New()
	return &Simulation{
		eng:   eng,
		model: surf.New(eng, pf, cfg),
		pf:    pf,
	}
}

// Engine exposes the underlying kernel (tests, advanced use).
func (s *Simulation) Engine() *core.Engine { return s.eng }

// Model exposes the underlying resource model.
func (s *Simulation) Model() *surf.Model { return s.model }

// Platform returns the simulated platform.
func (s *Simulation) Platform() *platform.Platform { return s.pf }

// Now returns the current virtual time.
func (s *Simulation) Now() float64 { return s.eng.Now() }

// Tasks returns the tasks in creation order.
func (s *Simulation) Tasks() []*Task { return s.tasks }

// DoneCount returns the number of tasks that completed successfully.
func (s *Simulation) DoneCount() int { return s.nDone }

// FailedCount returns the number of failed (including cancelled) tasks.
func (s *Simulation) FailedCount() int { return s.nFailed }

// NewTask creates a compute task of the given flops, NotScheduled.
func (s *Simulation) NewTask(name string, flops float64) *Task {
	if flops < 0 {
		flops = 0
	}
	t := s.add()
	t.name, t.kind, t.amount = name, Compute, flops
	return t
}

// NewCommTask creates an end-to-end communication task of the given
// bytes, NotScheduled until ScheduleComm assigns its endpoints.
func (s *Simulation) NewCommTask(name string, bytes float64) *Task {
	if bytes < 0 {
		bytes = 0
	}
	t := s.add()
	t.name, t.kind, t.amount = name, Comm, bytes
	return t
}

// NewSeqTask creates a zero-work synchronization task. It needs no
// placement and is Schedulable from the start.
func (s *Simulation) NewSeqTask(name string) *Task {
	t := s.add()
	t.name, t.kind, t.state = name, Seq, Schedulable
	return t
}

// taskBlockSize is the task-arena growth quantum.
const taskBlockSize = 1024

// add carves a fresh task out of the arena (growing it by whole
// blocks) and registers it.
func (s *Simulation) add() *Task {
	if len(s.taskArena) == cap(s.taskArena) {
		s.taskArena = make([]Task, 0, taskBlockSize)
	}
	s.taskArena = s.taskArena[:len(s.taskArena)+1]
	t := &s.taskArena[len(s.taskArena)-1]
	t.sim = s
	t.priority = 1
	s.tasks = append(s.tasks, t)
	return t
}

// depEdge is one arena entry of a task's dependency list: the peer
// task and the 1-based arena index of the next edge in the same list
// (0 terminates). Index links stay valid across arena growth, unlike
// element pointers.
type depEdge struct {
	task *Task
	next int32
}

// depBlockBits sizes the edge-arena blocks (4096 edges ≈ 64 KiB): the
// arena grows by whole blocks, so building a large DAG never copies
// already-stored edges — none of the append-doubling churn a flat
// slice would feed the collector.
const (
	depBlockBits = 12
	depBlockSize = 1 << depBlockBits
)

// depArena is a chunked, append-only store of dependency edges.
type depArena struct {
	blocks [][]depEdge
	n      int32
}

// push stores e and returns its 1-based index.
func (a *depArena) push(e depEdge) int32 {
	b, off := int(a.n)>>depBlockBits, int(a.n)&(depBlockSize-1)
	if off == 0 && b == len(a.blocks) {
		a.blocks = append(a.blocks, make([]depEdge, depBlockSize))
	}
	a.blocks[b][off] = e
	a.n++
	return a.n
}

// at returns the edge stored under 1-based index i.
func (a *depArena) at(i int32) *depEdge {
	i--
	return &a.blocks[i>>depBlockBits][i&(depBlockSize-1)]
}

// depIter walks one adjacency list: the inline first edge, then the
// arena overflow. It re-reads the arena through the simulation on
// every step, so edges appended mid-walk (observer callbacks) are
// picked up safely.
type depIter struct {
	s      *Simulation
	inline *Task // yielded first; nil once consumed (or for empty lists)
	i      int32
}

// next returns the next task of the list, or ok == false at the end.
func (it *depIter) next() (*Task, bool) {
	if it.inline != nil {
		t := it.inline
		it.inline = nil
		return t, true
	}
	if it.i == 0 {
		return nil, false
	}
	e := it.s.depEdges.at(it.i)
	it.i = e.next
	return e.task, true
}

func (t *Task) predIter() depIter { return depIter{s: t.sim, inline: t.pred0, i: t.predHead} }
func (t *Task) succIter() depIter { return depIter{s: t.sim, inline: t.succ0, i: t.succHead} }

// pushEdge appends an edge holding t to the list identified by
// inline/head/tail, preserving insertion order: the first edge lands
// in the inline slot, the rest in the arena.
func (s *Simulation) pushEdge(inline **Task, head, tail *int32, t *Task) {
	if *inline == nil && *head == 0 {
		*inline = t
		return
	}
	idx := s.depEdges.push(depEdge{task: t})
	if *tail != 0 {
		s.depEdges.at(*tail).next = idx
	} else {
		*head = idx
	}
	*tail = idx
}

// AddDependency declares that `after` cannot start before `before`
// completed. It is an error to add a dependency onto a task that
// already left the Schedulable state, or a duplicate edge.
func (s *Simulation) AddDependency(before, after *Task) error {
	if before == after {
		return fmt.Errorf("simdag: task %q cannot depend on itself", before.name)
	}
	if before.sim != s || after.sim != s {
		return errors.New("simdag: tasks belong to a different simulation")
	}
	if after.state != NotScheduled && after.state != Schedulable {
		return fmt.Errorf("%w: dependency onto %s task %q", ErrBadState, after.state, after.name)
	}
	if before.terminal() {
		if before.state == Failed {
			return fmt.Errorf("%w: dependency on failed task %q", ErrBadState, before.name)
		}
		return nil // depending on a Done task is vacuously satisfied
	}
	for it := after.predIter(); ; {
		p, ok := it.next()
		if !ok {
			break
		}
		if p == before {
			return fmt.Errorf("%w: %q -> %q", ErrDuplicate, before.name, after.name)
		}
	}
	s.pushEdge(&before.succ0, &before.succHead, &before.succTail, after)
	s.pushEdge(&after.pred0, &after.predHead, &after.predTail, before)
	after.waitingOn++
	s.depsDirty = true
	return nil
}

// Simulate runs the DAG until nothing can progress further: every
// released task ran to completion (or failure), and any task still
// NotScheduled or waiting on an unfinished dependency is simply left
// in place. It returns the watch-point tasks that reached a terminal
// state during this call (an empty slice when the run drained), so a
// scheduler can interleave decisions with execution: Watch a task,
// Simulate, reschedule, Simulate again. Simulate may be called
// repeatedly; each call resumes from the current virtual time.
func (s *Simulation) Simulate() ([]*Task, error) {
	if err := s.checkCycles(); err != nil {
		return nil, err
	}
	s.watchHits = s.watchHits[:0]
	// The pre-run kick drains synchronously below: suppress the sweep
	// timer a mid-build enqueue would otherwise arm for nothing.
	s.draining = true
	for _, t := range s.tasks {
		if t.state == Schedulable && t.waitingOn == 0 {
			s.enqueue(t)
		}
	}
	s.startReady()
	// A watch point can already fire in the synchronous pre-run drain
	// (a watched Seq task, or a placement on an already-failed host):
	// return before entering the drive loop — RunUntilIdle resets the
	// kernel's stop request on entry and would run the DAG to the end.
	var err error
	if len(s.watchHits) == 0 {
		err = s.eng.RunUntilIdle()
	}
	var hits []*Task
	if len(s.watchHits) > 0 {
		hits = append(hits, s.watchHits...) // copy: the buffer is reused
	}
	return hits, err
}

// Makespan returns the latest finish time over all terminal tasks.
func (s *Simulation) Makespan() float64 {
	m := 0.0
	for _, t := range s.tasks {
		if t.terminal() && t.finish > m {
			m = t.finish
		}
	}
	return m
}

// checkCycles runs Kahn's algorithm over the non-terminal tasks. Only
// new edges can create a cycle, so the O(V+E) pass is skipped when no
// dependency was added since the last check (Simulate in a watch-point
// loop stays cheap).
func (s *Simulation) checkCycles() error {
	if !s.depsDirty {
		return nil
	}
	queue := make([]*Task, 0, len(s.tasks))
	n := 0
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
		n++
		if c == 0 {
			queue = append(queue, t)
		}
	}
	seen := 0
	for i := 0; i < len(queue); i++ {
		seen++
		for it := queue[i].succIter(); ; {
			succ, ok := it.next()
			if !ok {
				break
			}
			if succ.indeg > 0 {
				succ.indeg--
				if succ.indeg == 0 {
					queue = append(queue, succ)
				}
			}
		}
	}
	if seen != n {
		return fmt.Errorf("%w involving %d tasks", ErrCycle, n-seen)
	}
	s.depsDirty = false
	return nil
}

// notify runs the observer hook (and the trace band, which sees the
// same transitions).
func (s *Simulation) notify(t *Task) {
	if s.trace != nil {
		s.traceTask(t)
	}
	if s.OnTaskStateChange != nil {
		s.OnTaskStateChange(t)
	}
}

// enqueue moves a task to Runnable and queues it for the release
// sweep. Same-instant completions share one sweep: the first release
// of the instant arms a single timer at the current time (re-arming
// the same timer object every instant), and the sweep then starts the
// whole batch back-to-back — k lock-step releases cost one timer and
// one contiguous start pass.
func (s *Simulation) enqueue(t *Task) {
	t.state = Runnable
	s.notify(t)
	s.ready = append(s.ready, t)
	if s.draining || s.sweepArmed {
		return
	}
	s.sweepArmed = true
	if s.sweep == nil {
		s.sweep = s.eng.At(s.eng.Now(), func() {
			s.sweepArmed = false
			s.startReady()
		})
	} else {
		s.sweep.Rearm(s.eng.Now())
	}
}

// startReady drains the ready queue, starting every released task.
// Seq tasks complete synchronously and may release further tasks into
// the same drain (their appends are picked up by the index loop), so
// whole chains of synchronization points collapse within one instant.
func (s *Simulation) startReady() {
	s.draining = true
	for i := 0; i < len(s.ready); i++ {
		t := s.ready[i]
		s.ready[i] = nil
		s.start(t)
	}
	s.ready = s.ready[:0]
	s.draining = false
}

// start launches one Runnable task as a surf action (or completes it
// inline for Seq tasks). No process is spawned: the action's
// completion callback drives the DAG.
func (s *Simulation) start(t *Task) {
	if t.state != Runnable {
		return
	}
	t.state = Running
	t.start = s.eng.Now()
	s.notify(t)

	var a *surf.Action
	var err error
	switch t.kind {
	case Seq:
		s.taskFinished(t, nil)
		return
	case Compute:
		a, err = s.model.ExecuteHandle(t.execH, t.amount, t.priority)
	case Parallel:
		a, err = s.model.ExecuteParallel(t.phosts, t.pflops, t.pbytes)
	case Comm:
		if t.commH != nil {
			a, err = s.model.CommunicateHandle(t.commH, t.amount)
		} else {
			a, err = s.model.Communicate(t.src, t.dst, t.amount)
		}
	}
	if err != nil {
		s.failTask(t, err)
		return
	}
	t.action = a
	if done, aerr := a.Poll(); done {
		// Completed at creation: the placement resource is already down.
		s.taskFinished(t, aerr)
		return
	}
	a.SetCompletion(t)
}

// ActionDone implements surf.Completion: the task's action finished,
// drive the DAG. Registering the task itself (instead of a closure)
// keeps a 100k-task run free of per-task callback allocations.
func (t *Task) ActionDone(_ *surf.Action, cerr error) {
	t.sim.taskFinished(t, cerr)
}

// taskFinished is the completion callback: it finalizes the task and
// releases its dependents (success) or cancels them (failure).
func (s *Simulation) taskFinished(t *Task, err error) {
	if err != nil {
		s.failTask(t, err)
		return
	}
	t.state = Done
	t.finish = s.eng.Now()
	if t.action != nil {
		// The action never escapes the task: recycle it (with its
		// variable and resources) for the next task start.
		t.action.Release()
		t.action = nil
	}
	s.nDone++
	s.record(t)
	s.notify(t)
	s.watch(t)
	for it := t.succIter(); ; {
		succ, ok := it.next()
		if !ok {
			break
		}
		succ.waitingOn--
		if succ.waitingOn == 0 && succ.state == Schedulable {
			s.enqueue(succ)
		}
	}
}

// failTask handles a task failure: under the reschedule policy a
// host-failure victim is diverted back to the scheduler; otherwise the
// failure is terminal.
func (s *Simulation) failTask(t *Task, err error) {
	if s.divert(t, err) {
		return
	}
	s.failTerminal(t, err)
}

// failTerminal marks a task Failed and cancels its dependents
// transitively: a workflow with a failed branch keeps executing the
// independent branches, exactly like a workflow engine would.
func (s *Simulation) failTerminal(t *Task, err error) {
	t.state = Failed
	t.err = err
	t.finish = s.eng.Now()
	if t.action != nil {
		t.action.Release()
		t.action = nil
	}
	s.nFailed++
	s.record(t)
	s.notify(t)
	s.watch(t)
	for it := t.succIter(); ; {
		succ, ok := it.next()
		if !ok {
			break
		}
		s.cancel(succ)
	}
}

// cancel marks a dependent of a failed task Failed (recursively). A
// dependent can never be Running here: its failed predecessor was, by
// definition, unfinished.
func (s *Simulation) cancel(t *Task) {
	if t.terminal() {
		return
	}
	t.state = Failed
	t.err = ErrDependencyFailed
	t.finish = s.eng.Now()
	s.nFailed++
	s.notify(t)
	s.watch(t)
	for it := t.succIter(); ; {
		succ, ok := it.next()
		if !ok {
			break
		}
		s.cancel(succ)
	}
}

// watch fires the watch point: the terminal task is recorded and the
// drive loop is asked to return once the instant settles.
func (s *Simulation) watch(t *Task) {
	if !t.watched {
		return
	}
	s.watchHits = append(s.watchHits, t)
	s.eng.Stop()
}

// record adds the finished task's span to the Gantt recorder.
func (s *Simulation) record(t *Task) {
	if s.Gantt == nil || t.kind == Seq {
		return
	}
	track := t.host
	kind := gantt.Compute
	switch t.kind {
	case Comm:
		track = t.src
		kind = gantt.Comm
	case Parallel:
		track = t.phosts[0] // by convention: the ptask's first host carries its span
	}
	s.Gantt.Add(track, kind, t.name, t.start, t.finish)
}

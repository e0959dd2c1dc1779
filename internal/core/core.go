// Package core implements the discrete-event simulation kernel
// underlying the whole stack: a virtual clock, a timed-event queue, and
// cooperative scheduling of simulated processes.
//
// Each simulated process runs in its own goroutine (the paper's
// "processes in a single address space"; goroutines map naturally onto
// SimGrid's ucontexts). The kernel enforces strictly one-at-a-time
// execution with a kernel token passed by direct handoff: a parking
// process wakes the next runnable goroutine itself (one channel
// synchronization per activation) and the engine goroutine only runs
// between rounds, to advance virtual time. This makes runs
// deterministic and keeps all simulation state free of locks. Processes
// enter the kernel through typed simcalls (see simcall.go), several of
// which are answered inline without any handoff at all.
//
// Resource models (package surf) plug into the engine through the Model
// interface: the engine asks every model for its next completion time,
// advances the clock to the earliest event (model completion or timer),
// fires timers, and lets models complete actions — which wakes the
// processes blocked on them.
package core

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sort"

	"repro/internal/instr"
)

// State describes a simulated process's lifecycle stage.
type State int

// Process lifecycle states.
const (
	// Created means the process exists but has not run yet.
	Created State = iota
	// Runnable means the process is in the run queue.
	Runnable
	// Running means the process is the one currently executing.
	Running
	// Waiting means the process is blocked in a simcall.
	Waiting
	// Done means the process function returned or the process was killed.
	Done
)

func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Runnable:
		return "runnable"
	case Running:
		return "running"
	case Waiting:
		return "waiting"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s)) //lint:allow hot-sprintf cold path: unknown-state debug rendering, never on the activity path
	}
}

// ErrKilled is delivered to a process that is forcibly terminated.
var ErrKilled = errors.New("core: process killed")

// ErrHostFailed is delivered to processes whose current activity was
// aborted by a resource failure.
var ErrHostFailed = errors.New("core: host failed")

// ErrLinkFailed is delivered when a network resource on the activity's
// route failed.
var ErrLinkFailed = errors.New("core: link failed")

// DeadlockError is returned by Run when processes remain but nothing can
// make progress (no pending action, no timer).
type DeadlockError struct {
	// Blocked lists the names of the processes stuck in a simcall.
	Blocked []string
	// Calls lists the typed simcall each blocked process is stuck in,
	// aligned with Blocked.
	Calls []SimcallKind
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("core: simulation deadlocked with %d blocked processes: %v", len(e.Blocked), e.Blocked) //lint:allow hot-sprintf cold path: formatting a fatal diagnostic, the run is already over
}

// killedSignal unwinds a killed process's stack through panic/recover so
// that its defers run even if user code ignores returned errors.
type killedSignal struct{}

// PanicError records a process panic caught at the spawn site: the
// process that crashed, the panic value, and the goroutine stack at the
// point of the panic. With Engine.ContainPanics set it becomes the
// process's termination cause (Process.Err) and is collected in
// Engine.Panics; otherwise it aborts the whole run through Run's error.
type PanicError struct {
	PID   int
	Name  string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: process %q (pid %d) panicked: %v", e.Name, e.PID, e.Value) //lint:allow hot-sprintf cold path: formatting a crash diagnostic
}

// Model is a resource model advancing a set of actions in virtual time.
//
// The engine contract: on every scheduling round, NextEventTime is
// called on each model (after all runnable processes and due timers
// have run) before the clock advances. It must be a pure query — the
// engine may additionally poll it mid-round (fast-path eligibility
// checks such as a zero sleep), so repeated calls at the same instant
// must be idempotent. AdvanceTo is then invoked — with
// no intervening process, timer, or model activity — but ONLY on the
// models whose reported next event time has been reached: a model that
// answered a time beyond the new clock value is skipped entirely for
// that step. Models must therefore keep progress bookkeeping lazily
// (e.g. absolute completion estimates re-derived when rates change, as
// surf does) rather than relying on AdvanceTo to integrate every
// elapsed interval. Models may cache state computed in NextEventTime
// and rely on it in the immediately following AdvanceTo; any engine
// refactor that decouples the two calls must revisit such caches.
type Model interface {
	// NextEventTime returns the earliest absolute time at which an
	// action managed by this model completes, or +Inf if none.
	NextEventTime(now float64) float64
	// AdvanceTo completes every action finishing at t, waking its
	// waiters via Engine.Wake. It is only called for steps with t at
	// (or, for multi-model engines, past) the model's reported next
	// event time.
	AdvanceTo(now, t float64)
}

// Process is a simulated process. It must only be manipulated from
// simulation context (inside process functions or timer callbacks).
type Process struct {
	pid  int
	name string
	host any // opaque to the kernel; upper layers store their host here

	engine *Engine
	fn     func(*Process)

	resume  chan error // handoff channel (value: wake error); aliases the carrier worker's channel
	state   State
	call    SimcallKind // simcall the process is blocked in
	wakeErr error

	killed      bool
	suspended   bool
	selfSuspend bool   // blocked because it suspended itself
	pendingWake *error // wake that arrived while suspended
	daemon      bool

	// sleepTm is the process's reusable sleep timer: one timer (and one
	// wake closure) per process for its whole lifetime, re-armed on
	// every Sleep, instead of a fresh timer allocation per call. Safe
	// because a process has at most one pending sleep, and its timer
	// has always fired (leaving the heap) before the next Sleep runs.
	sleepTm *timer

	// OnSuspend and OnResume, when non-nil, are invoked by
	// Suspend/Resume so resource layers can zero / restore the sharing
	// weight of the process's in-flight action.
	OnSuspend func()
	OnResume  func()

	onExit []func(err error)
	exited bool
	err    error // termination cause (nil for normal return)
}

// PID returns the process identifier (unique per engine, starting at 1).
func (p *Process) PID() int { return p.pid }

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// Host returns the opaque host cookie set at spawn time.
func (p *Process) Host() any { return p.host }

// SetHost updates the host cookie (process migration).
func (p *Process) SetHost(h any) { p.host = h }

// State returns the process state.
func (p *Process) State() State { return p.state }

// Engine returns the engine the process belongs to.
func (p *Process) Engine() *Engine { return p.engine }

// Daemonize marks the process as a daemon: the simulation may end while
// daemons are still blocked (they are killed at engine shutdown). The
// paper's infinite-loop servers are daemons in our reproduction.
func (p *Process) Daemonize() {
	if !p.daemon && p.state != Done {
		p.daemon = true
		p.engine.live--
	}
}

// Daemon reports whether the process is a daemon.
func (p *Process) Daemon() bool { return p.daemon }

// OnExit registers fn to run (in kernel context) when the process
// terminates; err is nil for a normal return.
func (p *Process) OnExit(fn func(err error)) { p.onExit = append(p.onExit, fn) }

// Err returns the termination cause after the process is Done.
func (p *Process) Err() error { return p.err }

// timer is a scheduled callback in the future event set.
type timer struct {
	at       float64
	seq      int64
	fn       func()
	canceled bool
	index    int
}

// Timer handles a scheduled callback; Cancel prevents it from firing.
type Timer struct {
	t   *timer
	eng *Engine
}

// Cancel prevents the timer from firing. Safe to call multiple times.
func (t *Timer) Cancel() {
	if t != nil && t.t != nil {
		t.t.canceled = true
	}
}

// Time returns the absolute simulated time the timer fires at.
func (t *Timer) Time() float64 { return t.t.at }

// Rearm reschedules the timer at absolute time `at` (clamped to the
// current time if in the past), reusing the same timer and callback: a
// fired or canceled timer is pushed back into the event set, a still
// pending one is moved. Periodic drivers (trace events) re-arm one
// timer from inside its own callback instead of allocating a fresh
// closure-carrying timer per event.
func (t *Timer) Rearm(at float64) { t.t.rearm(t.eng, at) }

// rearm is the shared re-arm core, also used by the per-process sleep
// timer (Process.Sleep).
func (tm *timer) rearm(e *Engine, at float64) {
	if at < e.now {
		at = e.now
	}
	tm.at = at
	tm.seq = e.nextSeq
	e.nextSeq++
	tm.canceled = false
	if tm.index >= 0 {
		heap.Fix(&e.timers, tm.index)
		return
	}
	heap.Push(&e.timers, tm)
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*timer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	t.index = -1 // out of the heap: Rearm must re-push, not Fix
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Engine is the simulation kernel. Create one with New, spawn processes,
// register models, then call Run.
type Engine struct {
	now     float64
	procs   map[int]*Process
	runQ    []*Process
	runHead int           // drain cursor into runQ (in-place queue reuse)
	schedCh chan struct{} // wakes the engine loop when a round is over
	timers  timerHeap
	models  []Model
	nextPID int
	nextSeq int64
	current *Process
	stats   SimcallStats

	modelNext []float64 // per-model next event time, filled each round
	live      int       // non-daemon processes (and external entities) not yet Done
	liveAll   int       // all processes not yet Done
	goSpawns  int       // fresh carrier goroutines created for this engine
	goLive    int       // processes currently backed by a goroutine (not Done)
	goPeak    int       // high-water mark of goLive
	fatal     error
	running   bool
	stopErr   error // deadlock error recorded by the kernel turn
	draining  bool  // shutdown drain: parkers must not advance time
	idleDrive bool  // RunUntilIdle: no live-process requirement, quiescence ends the run
	stopReq   bool  // Stop was called: the drive loop returns at the next round
	inKernel  bool  // a kernel turn is running: a panic reaching a spawn recover came from a kernel phase

	// MaxTime, when > 0, stops the simulation at that virtual time even
	// if activities remain (useful for steady-state measurements).
	MaxTime float64

	// ExternalBlocked, when set, names the external live entities (see
	// AddLive) that are currently blocked, aligned with the typed call
	// each is stuck in. The kernel consults it only to complete a
	// deadlock report: external entities keep Run going, so when
	// nothing can progress their identities belong in the error next
	// to the blocked processes.
	ExternalBlocked func() (names []string, calls []SimcallKind)

	// ContainPanics, when set, turns a panic in a process body into that
	// process's failure (a *PanicError termination cause, collected in
	// Panics) instead of aborting the whole run: one buggy actor cannot
	// crash a million-activity simulation. Containment covers process
	// functions only — a panic inside a kernel phase (model code, timer
	// callbacks, completion handlers) leaves the engine mid-turn and is
	// always fatal.
	ContainPanics bool

	panics []*PanicError // contained process panics, in occurrence order

	// Observability (instr.go): optional wall-clock phase profiler
	// (report-only) and the timer heap's high-water mark.
	prof      *instr.Profiler
	timerPeak int
}

// New returns an empty simulation engine at time 0.
func New() *Engine {
	return &Engine{
		procs:   make(map[int]*Process),
		schedCh: make(chan struct{}),
		nextPID: 1,
	}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// AddModel registers a resource model with the engine.
func (e *Engine) AddModel(m Model) { e.models = append(e.models, m) }

// Current returns the currently executing process, or nil when called
// from kernel context (timer callbacks, model completion).
func (e *Engine) Current() *Process { return e.current }

// ProcessCount returns the number of processes not yet terminated.
func (e *Engine) ProcessCount() int { return e.liveAll }

// Processes returns the live processes sorted by PID.
func (e *Engine) Processes() []*Process {
	out := make([]*Process, 0, len(e.procs))
	for _, p := range e.procs { //lint:allow det-maprange result is sorted by PID below before anything observes it
		if p.state != Done {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pid < out[j].pid })
	return out
}

// ProcessByPID returns the live process with the given PID, or nil.
func (e *Engine) ProcessByPID(pid int) *Process {
	p := e.procs[pid]
	if p == nil || p.state == Done {
		return nil
	}
	return p
}

// Spawn creates a simulated process executing fn. The process starts
// when the engine next schedules it (immediately at the current virtual
// time if the simulation is running). host is an opaque cookie exposed
// via Process.Host.
//
// The carrier goroutine comes from the package-level worker pool when
// one is parked (no stack allocation; Engine.GoroutineSpawns does not
// grow) and is created fresh otherwise — see factory.go for the
// recycle contract.
func (e *Engine) Spawn(name string, host any, fn func(*Process)) *Process {
	p := &Process{
		pid:    e.nextPID,
		name:   name,
		host:   host,
		engine: e,
		fn:     fn,
		state:  Created,
	}
	e.nextPID++
	e.procs[p.pid] = p
	e.live++
	e.liveAll++
	e.goLive++
	if e.goLive > e.goPeak {
		e.goPeak = e.goLive
	}

	w := grabWorker()
	if w == nil {
		w = newWorker()
		e.goSpawns++
	}
	w.proc = p
	p.resume = w.resume

	p.state = Runnable
	e.runQ = append(e.runQ, p)
	return p
}

// runProcessBody executes a process function on the current (worker)
// goroutine, converting panics per the containment contract.
func runProcessBody(e *Engine, p *Process) {
	defer func() {
		if r := recover(); r != nil {
			// Any panic reaching this recover means the unwinding
			// goroutine held the kernel token: no kernel turn is
			// live anymore, so the flag is reset either way.
			fromKernel := e.inKernel
			e.inKernel = false
			if _, ok := r.(killedSignal); ok {
				p.err = ErrKilled
				return
			}
			pe := &PanicError{PID: p.pid, Name: p.name, Value: r, Stack: debug.Stack()}
			if e.ContainPanics && !fromKernel {
				// Contained: the panic is this process's failure
				// alone; its defers already ran on the unwind.
				p.err = pe
				e.panics = append(e.panics, pe)
				return
			}
			// Fatal: a raw process panic (containment off), or a
			// panic that escaped a kernel phase running on this
			// goroutine's stack — the engine is mid-turn and
			// cannot continue either way.
			e.fatal = pe
		}
	}()
	p.fn(p)
}

// terminate finalizes a process in kernel handoff context.
func (e *Engine) terminate(p *Process) {
	p.state = Done
	if !p.exited {
		p.exited = true
		if !p.daemon {
			e.live--
		}
		e.liveAll--
		e.goLive--
		for i := len(p.onExit) - 1; i >= 0; i-- {
			p.onExit[i](p.err)
		}
	}
	delete(e.procs, p.pid)
}

// At schedules fn to run in kernel context at absolute virtual time t
// (clamped to the current time if in the past).
func (e *Engine) At(t float64, fn func()) *Timer {
	if t < e.now {
		t = e.now
	}
	tm := &timer{at: t, seq: e.nextSeq, fn: fn}
	e.nextSeq++
	heap.Push(&e.timers, tm)
	return &Timer{t: tm, eng: e}
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) *Timer { return e.At(e.now+d, fn) }

// Wake makes a Waiting process runnable again, delivering err as the
// result of its pending simcall. Waking a suspended process defers
// delivery until Resume. Waking a non-waiting process is a no-op.
func (e *Engine) Wake(p *Process, err error) {
	if p.state != Waiting {
		return
	}
	if p.suspended && !p.selfSuspend {
		ec := err
		p.pendingWake = &ec
		return
	}
	p.wakeErr = err
	p.state = Runnable
	e.runQ = append(e.runQ, p)
}

// Kill forcibly terminates the target process. A process killing itself
// unwinds immediately; killing another process takes effect the next
// time that process is scheduled (its pending simcall aborts).
func (p *Process) Kill() {
	if p.state == Done {
		return
	}
	p.killed = true
	e := p.engine
	if e.current == p {
		panic(killedSignal{})
	}
	switch p.state {
	case Waiting:
		p.suspended = false
		// Drop any wake that arrived while the process was suspended: a
		// stale pending error must not shadow ErrKilled if the victim
		// is touched by Resume before it is drained.
		p.pendingWake = nil
		p.wakeErr = ErrKilled
		p.state = Runnable
		e.runQ = append(e.runQ, p)
	case Created:
		// Not yet started: schedule so the goroutine can terminate.
		p.pendingWake = nil
		p.wakeErr = ErrKilled
		p.state = Runnable
		e.runQ = append(e.runQ, p)
	}
	// Runnable processes die when popped from the queue.
}

// Suspend pauses the process. Suspending the current process blocks it
// until Resume; suspending another process prevents it from being
// scheduled and freezes its in-flight action via OnSuspend.
func (p *Process) Suspend() {
	if p.state == Done || p.suspended {
		return
	}
	p.suspended = true
	if p.OnSuspend != nil {
		p.OnSuspend()
	}
	if p.engine.current == p {
		p.selfSuspend = true
		_ = p.blockOn(SimcallSuspend)
		p.selfSuspend = false
	}
}

// Resume unpauses a suspended process, delivering any wake-up that
// arrived while it slept.
func (p *Process) Resume() {
	if p.state == Done || !p.suspended {
		return
	}
	p.suspended = false
	if p.OnResume != nil {
		p.OnResume()
	}
	e := p.engine
	switch {
	case p.pendingWake != nil:
		err := *p.pendingWake
		p.pendingWake = nil
		e.Wake(p, err)
	case p.selfSuspend:
		e.Wake(p, nil)
	}
}

// Suspended reports whether the process is currently suspended.
func (p *Process) Suspended() bool { return p.suspended }

// Run executes the simulation until no non-daemon process remains, the
// optional MaxTime horizon is reached, or a deadlock is detected. At
// shutdown, remaining daemons are discarded. Run returns a
// *DeadlockError if blocked non-daemon processes can never progress, or
// the panic error of a crashing process.
//
// The engine goroutine only seeds the first dispatch: from then on the
// kernel token travels with whichever goroutine is active, and the
// kernel turn — clock advance, timer firing, model completions — runs
// on the stack of the last process to park in each round. Run regains
// control once per simulation, when it has ended.
func (e *Engine) Run() error {
	if e.running {
		return errors.New("core: engine already running")
	}
	e.running = true
	defer func() { e.running = false }()
	e.stopErr = nil
	e.stopReq = false

	if e.dispatch(nil) == dispatchNext || e.kernelTurn(nil) == dispatchNext {
		<-e.schedCh // the token is out; wait for the simulation to end
	}
	if e.fatal != nil {
		return e.fatal
	}
	if e.stopErr != nil {
		return e.stopErr
	}
	e.shutdownDaemons()
	if e.fatal != nil {
		return e.fatal
	}
	return nil
}

// RunUntilIdle drives the kernel without requiring any live process:
// model events and timers fire, and any process that does wake is
// scheduled, until nothing remains to simulate (or MaxTime is reached,
// or Stop is called). This is the drive loop for purely kernel-level
// workloads — DAG task graphs (package simdag) attach surf actions
// directly, so a simulation of any size spawns zero goroutines.
// Unlike Run, quiescence with pending activities never started is not a
// deadlock: the caller owns the notion of completeness. RunUntilIdle
// may be called repeatedly; each call resumes from the current state.
func (e *Engine) RunUntilIdle() error {
	if e.running {
		return errors.New("core: engine already running")
	}
	e.running = true
	e.idleDrive = true
	defer func() { e.running = false; e.idleDrive = false }()
	e.stopErr = nil
	e.stopReq = false

	if e.dispatch(nil) == dispatchNext || e.kernelTurn(nil) == dispatchNext {
		<-e.schedCh // the token is out; wait for the drive to end
	}
	e.stopReq = false
	if e.fatal != nil {
		return e.fatal
	}
	return e.stopErr
}

// Stop requests the drive loop to return before its next scheduling
// round. It is the kernel half of watch points: a completion callback
// (e.g. a watched DAG task finishing) calls Stop and RunUntilIdle
// returns once the current instant has settled, leaving the remaining
// events scheduled — a later RunUntilIdle resumes exactly where the
// simulation stopped. Calling Stop outside a run is a no-op for the
// next run (Run and RunUntilIdle clear it on entry).
func (e *Engine) Stop() { e.stopReq = true }

// Spawned returns the number of LOGICAL process starts on this engine:
// every Spawn call plus every external process start registered
// through AllocPID (msg's declarative activity chains). It counts
// starts, not goroutines — pooled-worker reuse and processless chains
// both grow it without creating a stack; GoroutineSpawns counts the
// stacks. Kernel-driven workloads (simdag) assert it stays zero.
func (e *Engine) Spawned() int { return e.nextPID - 1 }

// GoroutineSpawns returns the number of fresh carrier goroutines
// created on behalf of this engine's processes: the raw `go`
// statements, as opposed to Spawned's logical starts. With the worker
// pool warm (or a workload expressed as declarative chains) it stays
// at zero while Spawned keeps counting.
func (e *Engine) GoroutineSpawns() int { return e.goSpawns }

// GoroutinesPeak returns the high-water mark of simultaneously live
// process goroutines on this engine — the real stack population a run
// paid for, regardless of how many logical processes cycled through
// those stacks.
func (e *Engine) GoroutinesPeak() int { return e.goPeak }

// AllocPID reserves and returns the next process identifier for an
// external logical process — one driven directly by the kernel with no
// goroutine behind it (msg's declarative activity chains). External
// starts share the PID space and the Spawned count with goroutine
// processes, so "logical process starts" means the same thing across
// both forms.
func (e *Engine) AllocPID() int {
	pid := e.nextPID
	e.nextPID++
	return pid
}

// AddLive adjusts the count of live external entities: kernel-driven
// logical processes (msg activity chains) that must keep Run going
// exactly like a live non-daemon process would. Layers register +1 per
// non-daemon entity at start and -1 at its termination. Unlike
// processes, external entities are not killed at shutdown — their
// owner layer tears them down.
func (e *Engine) AddLive(delta int) { e.live += delta }

// Panics returns the contained process panics recorded so far (empty
// unless ContainPanics is set), in occurrence order. Each entry carries
// the crashing process's identity, the panic value, and the stack at
// the point of the panic — the run's crash event log.
func (e *Engine) Panics() []*PanicError { return e.panics }

// kernelTurn advances the simulation while holding the kernel token
// and the run queue is empty: it finds the next event, advances the
// clock, completes due model actions, fires due timers, and dispatches
// the processes that woke. self is the process whose goroutine runs
// the turn (nil in the engine goroutine). It returns dispatchNext as
// soon as control was handed to another process goroutine,
// dispatchSelf when the turn woke its own carrier (which then just
// keeps running), and dispatchNone when the simulation ended (the
// caller then owns the token and must return it to Run).
func (e *Engine) kernelTurn(self *Process) dispatchResult {
	// The turn runs model and timer callbacks: a panic escaping one of
	// them unwinds through the carrier's spawn recover, which must treat
	// it as fatal (the engine is mid-phase), never contain it. The flag
	// is cleared before control can reach process code again — every
	// return below, and the dispatch hand-off.
	e.inKernel = true
	for {
		if e.fatal != nil || e.stopReq || (!e.idleDrive && e.live <= 0) {
			e.inKernel = false
			return dispatchNone
		}

		// Phase 2: find the next event. Each model's answer is kept so
		// phase 3 can skip the models with nothing due at the new time.
		// Model.NextEventTime triggers the lazy maxmin solve, so this
		// is the profiler's "solve" phase.
		t0 := e.prof.Begin()
		next := math.Inf(1)
		if cap(e.modelNext) < len(e.models) {
			e.modelNext = make([]float64, len(e.models))
		}
		modelNext := e.modelNext[:len(e.models)]
		for i, m := range e.models {
			t := m.NextEventTime(e.now)
			modelNext[i] = t
			if t < next {
				next = t
			}
		}
		e.prof.End(instr.PhaseSolve, t0)
		for len(e.timers) > 0 && e.timers[0].canceled {
			heap.Pop(&e.timers)
		}
		if len(e.timers) > e.timerPeak {
			e.timerPeak = len(e.timers)
		}
		if len(e.timers) > 0 && e.timers[0].at < next {
			next = e.timers[0].at
		}
		if math.IsInf(next, 1) {
			if e.idleDrive {
				// Quiescence is the normal end of an idle drive: nothing
				// left to simulate, whether or not activities never
				// started (the caller inspects its own task states).
				e.inKernel = false
				return dispatchNone
			}
			var blocked []string
			var calls []SimcallKind
			for _, p := range e.Processes() {
				if !p.daemon {
					blocked = append(blocked, p.name)
					calls = append(calls, p.call)
				}
			}
			if e.ExternalBlocked != nil {
				names, ecalls := e.ExternalBlocked()
				blocked = append(blocked, names...)
				calls = append(calls, ecalls...)
			}
			e.stopErr = &DeadlockError{Blocked: blocked, Calls: calls}
			e.inKernel = false
			return dispatchNone
		}
		if e.MaxTime > 0 && next > e.MaxTime {
			e.now = e.MaxTime
			e.inKernel = false
			return dispatchNone
		}

		// Phase 3: advance the clock and fire everything due at `next`.
		// Models complete their due actions first (progress bookkeeping
		// is lazy, see Model); only then do timers fire, so trace-driven
		// capacity changes at `next` never apply retroactively to
		// [prev, next]. Models whose earliest event lies beyond the new
		// time have nothing due and are not polled at all — with lazy
		// bookkeeping a skipped step costs them literally nothing.
		prev := e.now
		e.now = next
		t0 = e.prof.Begin()
		for i, m := range e.models {
			if modelNext[i] <= e.now {
				m.AdvanceTo(prev, e.now)
			}
		}
		e.prof.End(instr.PhaseAdvance, t0)
		t0 = e.prof.Begin()
		for len(e.timers) > 0 && e.timers[0].at <= e.now {
			tm := heap.Pop(&e.timers).(*timer)
			if !tm.canceled {
				tm.fn()
			}
		}
		e.prof.End(instr.PhaseSweep, t0)

		// Phase 1 of the next round: hand control to the first woken
		// process; its dispatch chain continues the round. The flag drops
		// before the hand-off: the woken process runs its own code.
		e.inKernel = false
		t0 = e.prof.Begin()
		r := e.dispatch(self)
		e.prof.End(instr.PhaseDispatch, t0)
		if r != dispatchNone {
			return r
		}
		e.inKernel = true
	}
}

// shutdownDaemons kills all remaining (daemon) processes so their defers
// and exit hooks run. The drain round must not advance virtual time, so
// parkers hand the token straight back instead of running kernel turns.
func (e *Engine) shutdownDaemons() {
	e.draining = true
	for _, p := range e.Processes() {
		p.killed = true
		switch p.state {
		case Waiting, Created:
			p.suspended = false
			p.pendingWake = nil
			p.wakeErr = ErrKilled
			p.state = Runnable
			e.runQ = append(e.runQ, p)
		}
	}
	if e.dispatch(nil) == dispatchNext {
		<-e.schedCh
	}
	e.draining = false
}

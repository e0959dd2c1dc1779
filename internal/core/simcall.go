// The simcall layer: the explicit boundary between simulated processes
// and the kernel (the paper's user-level/simulation-kernel split).
//
// Every way a process can yield control is a *typed* simcall issued
// through a single entry point, so the kernel sees what the process
// wants (wait for an activity, sleep, yield, suspend, mailbox send or
// receive) instead of an opaque block. That buys three things:
//
//   - a synchronous fast path: simcalls whose answer is already known
//     in kernel state (zero-duration sleeps, already-completed
//     activities, non-blocking tests, a yield with an empty run queue)
//     return inline with zero channel round trips;
//   - a lighter handoff: a parking process wakes its successor (the
//     next runnable process, or the engine loop when the round is over)
//     directly through the successor's own resume channel — one channel
//     synchronization per activation instead of the former two-sync
//     ping-pong through a central scheduler goroutine;
//   - diagnosable blocking: a Waiting process records which simcall it
//     is stuck in, surfaced by Process.Simcall and DeadlockError.

package core

// SimcallKind identifies the typed simcall a process issues when it
// yields to the kernel.
type SimcallKind uint8

// Simcall kinds. SimcallSend and SimcallRecv label blocks whose wake is
// driven by upper-layer rendezvous bookkeeping (MSG mailboxes, SMPI
// message queues, GRAS inboxes); the kernel treats them like
// SimcallWait but keeps the label for diagnostics.
const (
	// SimcallNone means the process is not blocked in a simcall.
	SimcallNone SimcallKind = iota
	// SimcallWait is a generic block until an external Engine.Wake.
	SimcallWait
	// SimcallWaitActivity blocks until an Activity completes.
	SimcallWaitActivity
	// SimcallSleep blocks until a timer fires.
	SimcallSleep
	// SimcallYield re-queues the caller behind the runnable processes.
	SimcallYield
	// SimcallSuspend is a self-suspension, lifted by Resume.
	SimcallSuspend
	// SimcallSend is a block in a mailbox/rendezvous send.
	SimcallSend
	// SimcallRecv is a block in a mailbox/rendezvous receive.
	SimcallRecv
)

func (k SimcallKind) String() string {
	switch k {
	case SimcallNone:
		return "none"
	case SimcallWait:
		return "wait"
	case SimcallWaitActivity:
		return "wait-activity"
	case SimcallSleep:
		return "sleep"
	case SimcallYield:
		return "yield"
	case SimcallSuspend:
		return "suspend"
	case SimcallSend:
		return "send"
	case SimcallRecv:
		return "recv"
	default:
		return "simcall(?)"
	}
}

// SimcallStats counts simcall dispositions since engine creation.
type SimcallStats struct {
	// Fast counts simcalls answered inline, with zero channel round
	// trips (completed-activity waits, zero sleeps, empty-queue yields,
	// non-blocking tests).
	Fast uint64
	// Slow counts simcalls that parked the caller: each costs exactly
	// one channel synchronization to hand control to the successor.
	Slow uint64
}

// SimcallStats returns the cumulative fast/slow simcall counters.
func (e *Engine) SimcallStats() SimcallStats { return e.stats }

// Simcall returns the typed simcall the process is currently blocked in
// (SimcallNone while it runs). For a process made Runnable but not yet
// rescheduled it still names the call it is about to return from.
func (p *Process) Simcall() SimcallKind { return p.call }

// Activity is an asynchronous operation a process can block on through
// the typed wait-activity simcall (surf.Action is the canonical
// implementation). The kernel needs only completion polling — the fast
// path — and waiter registration; the activity's owner delivers the
// completion through Engine.Wake.
type Activity interface {
	// Poll reports whether the activity already completed and, if so,
	// its outcome. It must not block or mutate simulation state.
	Poll() (done bool, err error)
	// Attach registers p as the process to wake at completion. The
	// kernel calls it only after Poll returned false.
	Attach(p *Process)
}

// dispatchResult describes where control went after a dispatch.
type dispatchResult uint8

const (
	// dispatchNone: the run queue drained (or a fatal error aborted the
	// round); the caller keeps the kernel token.
	dispatchNone dispatchResult = iota
	// dispatchNext: control was handed to another process.
	dispatchNext
	// dispatchSelf: the popped process is the one whose goroutine is
	// dispatching (a Yield that re-queued itself, or a kernel turn that
	// woke its own carrier): it simply keeps running — no channel op.
	dispatchSelf
)

// dispatch pops the next schedulable process off the run queue and
// transfers control to it with a single channel send. self is the
// process whose goroutine is running this code (nil in the engine
// goroutine): popping self means control stays right here. The queue
// is drained in place (head cursor) so its backing array is reused
// across scheduling rounds.
func (e *Engine) dispatch(self *Process) dispatchResult {
	for e.fatal == nil && e.runHead < len(e.runQ) {
		p := e.runQ[e.runHead]
		e.runQ[e.runHead] = nil // release the reference for the collector
		e.runHead++
		if p.state == Done {
			continue
		}
		if p.suspended && !p.killed {
			// Park: keep it Waiting until Resume re-delivers the wake.
			// This must precede the self check — a kernel turn running
			// on p's own stack may wake p and then suspend it in the
			// same instant, and p must stay parked, not resume.
			p.state = Waiting
			ec := p.wakeErr
			p.pendingWake = &ec
			continue
		}
		if p == self {
			e.current = p
			p.state = Running
			return dispatchSelf
		}
		e.current = p
		p.state = Running
		p.resume <- p.wakeErr
		return dispatchNext
	}
	e.runQ = e.runQ[:0]
	e.runHead = 0
	e.current = nil
	return dispatchNone
}

// releaseToken passes the kernel token on after the caller's process
// stops running: to the next runnable process, else the kernel turn
// (clock advance, completions, timers) runs right here on the caller's
// stack — so a simulation step costs zero engine-goroutine round
// trips. The token only returns to Run (schedCh) when the simulation
// has ended or a shutdown drain round is over. self is the process
// whose goroutine is executing (nil for a dying goroutine); a
// dispatchSelf result means that very process was scheduled again.
func (e *Engine) releaseToken(self *Process) dispatchResult {
	r := e.dispatch(self)
	if r != dispatchNone {
		return r
	}
	if e.draining {
		e.schedCh <- struct{}{}
		return dispatchNone
	}
	r = e.kernelTurn(self)
	if r == dispatchNone {
		e.schedCh <- struct{}{} // simulation over: return the token
	}
	return r
}

// park hands the kernel token on and blocks until this process is
// resumed, returning the wake error. The successor is woken directly
// through its own resume channel — one synchronization — and a
// self-wake (the kernel turn on this very stack woke this process
// again) returns inline with zero channel round trips for the whole
// step. The parking goroutine performs no simulation-state access
// between the wake-out and its own resume receive.
func (p *Process) park() error {
	if p.engine.releaseToken(p) == dispatchSelf {
		return p.wakeErr
	}
	return <-p.resume
}

// blockOn is the single slow-path simcall entry point: it records the
// typed call, parks the process, and re-establishes its running state
// on wake-up. A killed process unwinds (running its defers) instead of
// returning.
func (p *Process) blockOn(kind SimcallKind) error {
	e := p.engine
	if e.current != p {
		panic("core: simcall issued outside the running process")
	}
	e.stats.Slow++
	p.call = kind
	p.state = Waiting
	err := p.park()
	p.call = SimcallNone
	p.state = Running
	if p.killed {
		panic(killedSignal{})
	}
	return err
}

// Block yields the calling process until the kernel wakes it (action
// completion, timer, Wake). It returns the error passed to Wake. If the
// process was killed while blocked, Block unwinds the stack (running
// defers) instead of returning.
func (p *Process) Block() error { return p.blockOn(SimcallWait) }

// BlockOn is Block labelled with the operation the caller is blocked
// in (send, receive, …), so the kernel's diagnostics — deadlock
// reports, Process.Simcall — name what the process wants instead of an
// opaque wait. The wake is still driven by the caller's own
// bookkeeping, exactly like Block.
func (p *Process) BlockOn(kind SimcallKind) error {
	if kind == SimcallNone {
		kind = SimcallWait
	}
	return p.blockOn(kind)
}

// WaitActivity blocks the process until the activity completes and
// returns its outcome. An activity that already completed is the fast
// path: its outcome is returned inline, with zero channel round trips.
func (p *Process) WaitActivity(a Activity) error {
	if done, err := a.Poll(); done {
		if p.engine.current == p {
			p.engine.stats.Fast++
		}
		return err
	}
	a.Attach(p)
	return p.blockOn(SimcallWaitActivity)
}

// TestActivity is the non-blocking completion probe: it reports whether
// the activity completed (and its outcome) without ever yielding —
// always a fast-path simcall.
func (p *Process) TestActivity(a Activity) (done bool, err error) {
	done, err = a.Poll()
	p.engine.stats.Fast++
	return done, err
}

// quiescentAt reports whether nothing else can happen at the current
// instant: no runnable process, no timer due now, and no model event
// due now. Only then may a zero-duration simcall be answered inline
// without changing what the caller would observe after a real yield.
func (e *Engine) quiescentAt() bool {
	if e.runHead < len(e.runQ) {
		return false
	}
	if len(e.timers) > 0 && !e.timers[0].canceled && e.timers[0].at <= e.now {
		return false
	}
	for _, m := range e.models {
		if m.NextEventTime(e.now) <= e.now {
			return false
		}
	}
	return true
}

// Sleep blocks the process for d virtual seconds. A non-positive
// duration with nothing else scheduled at this instant is the fast
// path: there is nothing to wait for, so Sleep returns inline without
// a scheduler round trip. When anything else is due now — a runnable
// process, a timer, a model completion — a zero sleep still yields,
// exactly like before: the instant fully settles before Sleep returns,
// and a zero-sleep polling loop cannot starve the rest of the
// simulation.
func (p *Process) Sleep(d float64) error {
	e := p.engine
	if d <= 0 {
		if e.current != p {
			panic("core: simcall issued outside the running process")
		}
		if e.quiescentAt() {
			e.stats.Fast++
			return nil
		}
		d = 0
	}
	// One reusable timer per process: a process has at most one pending
	// sleep, and the previous sleep's timer has necessarily fired (and
	// left the heap) before this call runs, so re-arming is normally a
	// fresh push (rearm moves a still-armed timer, e.g. after an early
	// wake). A sleep aborted by Kill leaves the timer armed; its
	// eventual firing wakes a Done process, which is a no-op.
	if p.sleepTm == nil {
		p.sleepTm = &timer{index: -1, fn: func() { e.Wake(p, nil) }}
	}
	p.sleepTm.rearm(e, e.now+d)
	return p.blockOn(SimcallSleep)
}

// Yield gives other runnable processes a chance to run at the current
// virtual time, then resumes. With an empty run queue there is nobody
// to yield to and the call returns inline (fast path).
func (p *Process) Yield() {
	e := p.engine
	if e.current != p {
		panic("core: simcall issued outside the running process")
	}
	if e.runHead >= len(e.runQ) {
		e.stats.Fast++
		return
	}
	e.stats.Slow++
	p.call = SimcallYield
	p.state = Runnable
	e.runQ = append(e.runQ, p)
	_ = p.park()
	p.call = SimcallNone
	p.state = Running
	if p.killed {
		panic(killedSignal{})
	}
}

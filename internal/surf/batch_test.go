package surf

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
)

// lockstepPlatform builds nPairs identical disjoint sender/receiver
// pairs: every transfer and compute completes at the same instant.
func lockstepPlatform(t testing.TB, nPairs int) *platform.Platform {
	t.Helper()
	pf := platform.New()
	for i := 0; i < nPairs; i++ {
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		if err := pf.AddHost(&platform.Host{Name: src, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
		if err := pf.AddHost(&platform.Host{Name: dst, Power: 1e9}); err != nil {
			t.Fatal(err)
		}
		l := &platform.Link{Name: fmt.Sprintf("l%d", i), Bandwidth: 1e8, Latency: 1e-4}
		if err := pf.AddRoute(src, dst, []*platform.Link{l}); err != nil {
			t.Fatal(err)
		}
	}
	return pf
}

// lockstepEvent is one completion as its waiter observed it on waking.
type lockstepEvent struct {
	t float64
	a *Action
}

// runLockstep drives rounds of simultaneous transfers + computes and
// returns the completions in wake order. Actions are never released,
// so the returned pointers stay valid.
func runLockstep(t *testing.T, nPairs, rounds int) []lockstepEvent {
	t.Helper()
	pf := lockstepPlatform(t, nPairs)
	eng := core.New()
	m := New(eng, pf, DefaultConfig())
	var log []lockstepEvent
	for i := 0; i < nPairs; i++ {
		src, dst := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		eng.Spawn(fmt.Sprintf("p%d", i), nil, func(p *core.Process) {
			for r := 0; r < rounds; r++ {
				a, err := m.Communicate(src, dst, 1e5)
				if err != nil {
					t.Errorf("Communicate: %v", err)
					return
				}
				if err := a.Wait(p); err != nil {
					t.Errorf("comm wait: %v", err)
					return
				}
				log = append(log, lockstepEvent{eng.Now(), a})
				b, err := m.Execute(src, 1e6, 1)
				if err != nil {
					t.Errorf("Execute: %v", err)
					return
				}
				if err := b.Wait(p); err != nil {
					t.Errorf("exec wait: %v", err)
					return
				}
				log = append(log, lockstepEvent{eng.Now(), b})
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return log
}

// TestLockstepCompletionOrder pins same-instant wake order: every
// action completes, each at its own finish time, and within one
// instant the waiters wake in the total actionLess order (start, name,
// seq), whatever order the heap yielded the due actions in.
func TestLockstepCompletionOrder(t *testing.T) {
	const pairs, rounds = 60, 4
	log := runLockstep(t, pairs, rounds)
	if len(log) != pairs*rounds*2 {
		t.Fatalf("completion log has %d events, want %d", len(log), pairs*rounds*2)
	}
	instants := 1
	for i, ev := range log {
		if ev.t != ev.a.Finish() {
			t.Fatalf("event %d: %s woke at %.9g, finished at %.9g", i, ev.a.Name(), ev.t, ev.a.Finish())
		}
		if i == 0 {
			continue
		}
		prev := log[i-1]
		switch {
		case ev.t < prev.t:
			t.Fatalf("event %d: time went back from %.9g to %.9g", i, prev.t, ev.t)
		case ev.t > prev.t:
			instants++
		case !actionLess(prev.a, ev.a):
			t.Fatalf("event %d at %.9g: %s (start %g, seq %d) woke after %s (start %g, seq %d), against actionLess",
				i, ev.t, ev.a.Name(), ev.a.start, ev.a.seq, prev.a.Name(), prev.a.start, prev.a.seq)
		}
	}
	// Lock-step: the pairs move together, one instant per comm and per
	// compute phase of each round.
	if instants != rounds*2 {
		t.Fatalf("completions spread over %d instants, want %d", instants, rounds*2)
	}
}

// TestSleepZeroSettlesDueCompletions pins the fast-path guard against
// model events: a zero-work action is due at the current instant, so
// Sleep(0) must still run a kernel round (completing it) instead of
// returning inline — the pre-refactor "let this instant settle"
// barrier semantics.
func TestSleepZeroSettlesDueCompletions(t *testing.T) {
	pf := lockstepPlatform(t, 1)
	eng := core.New()
	m := New(eng, pf, DefaultConfig())
	eng.Spawn("p", nil, func(p *core.Process) {
		a, err := m.Execute("s0", 0, 1) // zero work: due immediately
		if err != nil {
			t.Errorf("Execute: %v", err)
			return
		}
		if err := p.Sleep(0); err != nil {
			t.Errorf("Sleep(0): %v", err)
			return
		}
		if !a.Done() {
			t.Error("zero-work action not completed across Sleep(0)")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestCompletedActionWaitFastPath: waiting on an action that already
// finished is answered inline — zero channel round trips, visible in
// the kernel's fast-path counter.
func TestCompletedActionWaitFastPath(t *testing.T) {
	pf := lockstepPlatform(t, 1)
	eng := core.New()
	m := New(eng, pf, DefaultConfig())
	eng.Spawn("p", nil, func(p *core.Process) {
		a, err := m.Execute("s0", 1e6, 1)
		if err != nil {
			t.Errorf("Execute: %v", err)
			return
		}
		if err := p.Sleep(10); err != nil { // far beyond the action's finish
			t.Errorf("Sleep: %v", err)
			return
		}
		if done, _ := a.Test(p); !done {
			t.Error("action not done after 10s")
		}
		before := eng.SimcallStats()
		if err := a.Wait(p); err != nil {
			t.Errorf("Wait: %v", err)
		}
		after := eng.SimcallStats()
		if after.Fast != before.Fast+1 {
			t.Errorf("Fast went %d -> %d, want +1 (completed-action wait)", before.Fast, after.Fast)
		}
		if after.Slow != before.Slow {
			t.Errorf("Slow went %d -> %d, want unchanged", before.Slow, after.Slow)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

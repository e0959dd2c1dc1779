// Determinism guarantees for the kernel-driven DAG path: a seeded
// workflow produces a bit-identical task-event order on every run, and
// a lock-step layered DAG (whole layers finishing at one instant)
// releases each same-instant completion set in task-creation order
// (mirroring the MSG-level TestLockstepCompletionOrder).
package simdag

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/surf"
)

// runSeededDAG generates a seeded random workflow on a seeded Waxman
// platform, schedules it with min-min, runs it, and returns the
// state-transition log.
func runSeededDAG(t *testing.T, seed int64) []string {
	t.Helper()
	pf, err := platform.GenerateWaxman(platform.DefaultWaxmanConfig(8, seed))
	if err != nil {
		t.Fatal(err)
	}
	s := New(pf, surf.DefaultConfig())
	var log []string
	s.OnTaskStateChange = func(task *Task) {
		log = append(log, fmt.Sprintf("%.9e %s %s", s.Now(), task.Name(), task.State()))
	}
	if _, err := RandomLayered(s, DefaultRandomConfig(6, 25, seed+1)); err != nil {
		t.Fatal(err)
	}
	var hosts []string
	for _, h := range pf.Hosts() {
		hosts = append(hosts, h.Name)
	}
	if err := ScheduleMinMin(s, hosts); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if s.FailedCount() != 0 {
		t.Fatalf("%d tasks failed", s.FailedCount())
	}
	for _, task := range s.Tasks() {
		if task.State() != Done {
			t.Fatalf("task %s ended %s", task.Name(), task.State())
		}
	}
	if g := s.Engine().Spawned(); g != 0 {
		t.Fatalf("%d goroutines spawned, want 0", g)
	}
	return log
}

// TestSimDagDeterminism is run 5× by CI (-count=5): any nondeterminism
// in the release sweep, same-instant completion order or the scheduler
// shows up as a diverging event log.
func TestSimDagDeterminism(t *testing.T) {
	const seed = 4242
	ref := runSeededDAG(t, seed)
	if len(ref) == 0 {
		t.Fatal("empty event log")
	}
	for run := 1; run <= 2; run++ {
		got := runSeededDAG(t, seed)
		diffLogs(t, ref, got, "rerun")
	}
}

// TestSimDagBatchedEquivalence pins the event order of a lock-step
// workload where whole layers finish at the same instant: each layer's
// 16 tasks complete at one instant, strictly after the previous layer,
// in task-creation order and followed by the layer's barrier, and the
// log is bit-identical across runs.
func TestSimDagBatchedEquivalence(t *testing.T) {
	const layers, width = 6, 16
	ref := runLockstepDAG(t)
	var done []string
	for _, ev := range ref {
		if strings.HasSuffix(ev, " done") {
			if f := strings.Fields(ev); f[1][0] == 'l' || strings.HasPrefix(f[1], "barrier") {
				done = append(done, ev)
			}
		}
	}
	if want := layers*width + layers - 1; len(done) != want {
		t.Fatalf("%d compute/barrier completions, want %d", len(done), want)
	}
	prevT := -1.0
	i := 0
	for l := 0; l < layers; l++ {
		instant := strings.Fields(done[i])[0]
		at, err := strconv.ParseFloat(instant, 64)
		if err != nil {
			t.Fatal(err)
		}
		if at <= prevT {
			t.Fatalf("layer %d completes at %s, not after layer %d at %g", l, instant, l-1, prevT)
		}
		names := make([]string, 0, width+1)
		for w := 0; w < width; w++ {
			names = append(names, fmt.Sprintf("l%dt%02d", l, w))
		}
		if l+1 < layers {
			names = append(names, fmt.Sprintf("barrier%d", l+1))
		}
		for _, name := range names {
			if want := instant + " " + name + " done"; done[i] != want {
				t.Fatalf("completion %d = %q, want %q", i, done[i], want)
			}
			i++
		}
		prevT = at
	}
	for run := 1; run <= 2; run++ {
		diffLogs(t, ref, runLockstepDAG(t), "lockstep rerun")
	}
}

// runLockstepDAG runs 6 layers × 16 identical tasks on 16 identical
// hosts, with barriers between layers and identical cross-host
// transfers, so whole layers complete at the same instant (maximal
// same-instant completion sets), and returns the state-transition log.
func runLockstepDAG(t *testing.T) []string {
	t.Helper()
	pf := platform.New()
	// 16 identical hosts: all tasks of a layer complete in lock-step.
	for i := 0; i < 16; i++ {
		if err := pf.AddHost(&platform.Host{Name: fmt.Sprintf("n%02d", i), Power: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		for j := i + 1; j < 16; j++ {
			l := &platform.Link{Name: fmt.Sprintf("l%d_%d", i, j), Bandwidth: 1e8, Latency: 1e-4}
			if err := pf.AddRoute(fmt.Sprintf("n%02d", i), fmt.Sprintf("n%02d", j), []*platform.Link{l}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := New(pf, exactConfig())
	var log []string
	s.OnTaskStateChange = func(task *Task) {
		log = append(log, fmt.Sprintf("%.9e %s %s", s.Now(), task.Name(), task.State()))
	}
	// 6 layers × 16 identical tasks, barriers between layers, plus
	// identical cross-host transfers: maximal same-instant completion sets.
	var prev []*Task
	var hosts []string
	for _, h := range pf.Hosts() {
		hosts = append(hosts, h.Name)
	}
	for l := 0; l < 6; l++ {
		var layer []*Task
		for w := 0; w < 16; w++ {
			task := s.NewTask(fmt.Sprintf("l%dt%02d", l, w), 1e9)
			if err := task.Schedule(hosts[w]); err != nil {
				t.Fatal(err)
			}
			layer = append(layer, task)
			if l == 0 {
				continue
			}
			c := s.NewCommTask(fmt.Sprintf("x%dt%02d", l, w), 1e6)
			if err := c.ScheduleComm(hosts[(w+1)%16], hosts[w]); err != nil {
				t.Fatal(err)
			}
			if err := s.AddDependency(prev[(w+1)%16], c); err != nil {
				t.Fatal(err)
			}
			if err := s.AddDependency(c, task); err != nil {
				t.Fatal(err)
			}
		}
		if l > 0 {
			barrier := s.NewSeqTask(fmt.Sprintf("barrier%d", l))
			for _, p := range prev {
				if err := s.AddDependency(p, barrier); err != nil {
					t.Fatal(err)
				}
			}
			for _, n := range layer {
				if err := s.AddDependency(barrier, n); err != nil {
					t.Fatal(err)
				}
			}
		}
		prev = layer
	}
	if _, err := s.Simulate(); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if s.DoneCount() != len(s.Tasks()) {
		t.Fatalf("only %d/%d tasks done", s.DoneCount(), len(s.Tasks()))
	}
	return log
}

func diffLogs(t *testing.T, ref, got []string, label string) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d events, reference has %d", label, len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("%s: event %d differs:\n  ref: %s\n  got: %s", label, i, ref[i], got[i])
		}
	}
}

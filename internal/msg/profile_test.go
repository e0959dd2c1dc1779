package msg

import (
	"testing"

	"repro/internal/instr"
)

// TestProfiledGoroutineProcesses runs goroutine-form processes with a
// phase profiler attached. Kernel turns then run on whichever process
// goroutine released the token last, so every profiler write must
// happen before the turn hands the engine to the next goroutine; under
// -race a span closed after the hand-off is reported as a data race.
func TestProfiledGoroutineProcesses(t *testing.T) {
	env := NewEnvironment(lanPlatform(t), exact())
	prof := instr.NewProfiler()
	env.Engine().SetProfiler(prof)
	const rounds = 20
	for i := 0; i < 4; i++ {
		port := 30 + i
		env.NewProcess("sender", "client", func(p *Process) error {
			for r := 0; r < rounds; r++ {
				if err := p.Execute(NewTask("work", 1e6, 0)); err != nil {
					return err
				}
				if err := p.Put(NewTask("data", 0, 1e4), "server", port); err != nil {
					return err
				}
			}
			return nil
		})
		env.NewProcess("receiver", "server", func(p *Process) error {
			for r := 0; r < rounds; r++ {
				if _, err := p.Get(port); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if prof.Count(instr.PhaseDispatch) == 0 || prof.Count(instr.PhaseAdvance) == 0 {
		t.Fatalf("profiler saw %d dispatch and %d advance spans, want both > 0",
			prof.Count(instr.PhaseDispatch), prof.Count(instr.PhaseAdvance))
	}
}

package simdag

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/platform"
)

// daxWithSizes is a two-job DAX whose producer runtime and transferred
// file size are filled in by the caller.
func daxWithSizes(runtime, size string) string {
	return `<adag name="bad">
  <job id="A" name="produce" runtime="` + runtime + `">
    <uses file="f" link="output" size="` + size + `"/>
  </job>
  <job id="B" name="consume" runtime="1">
    <uses file="f" link="input" size="1"/>
  </job>
</adag>`
}

// TestLoadersRejectBadSize: a NaN, infinite or negative amount in
// either workflow format is a typed error naming the offending node,
// edge, job or file — never a task with a silently wrong amount, and
// never a transfer quietly degraded to a control dependency.
func TestLoadersRejectBadSize(t *testing.T) {
	cases := []struct {
		name, format, input, names string
	}{
		{"dot node nan", "dot", `digraph { a [size=nan]; }`, `"a"`},
		{"dot node negative", "dot", `digraph { a [size=-5e9]; }`, `"a"`},
		{"dot node inf", "dot", `digraph { a [size=inf]; }`, `"a"`},
		{"dot node -inf", "dot", `digraph { a [size="-Inf"]; }`, `"a"`},
		{"dot node overflow", "dot", `digraph { a [size=1e400]; }`, `"a"`},
		{"dot edge nan", "dot", `digraph { a; b; a -> b [size=nan]; }`, "a -> b"},
		{"dot edge negative", "dot", `digraph { a -> b -> c [size=-1]; }`, "a -> b -> c"},
		{"dot edge inf", "dot", `digraph { a -> b [size=inf]; }`, "a -> b"},
		{"dax runtime nan", "dax", daxWithSizes("NaN", "10"), `"A"`},
		{"dax runtime negative", "dax", daxWithSizes("-2", "10"), `"A"`},
		{"dax runtime inf", "dax", daxWithSizes("+Inf", "10"), `"A"`},
		{"dax runtime overflows flops", "dax", daxWithSizes("1e300", "10"), `"A"`},
		{"dax file nan", "dax", daxWithSizes("1", "NaN"), `"f"`},
		{"dax file negative", "dax", daxWithSizes("1", "-10"), `"f"`},
		{"dax file -inf", "dax", daxWithSizes("1", "-Inf"), `"f"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(platform.New(), exactConfig())
			var err error
			if c.format == "dot" {
				_, err = LoadDOT(s, strings.NewReader(c.input))
			} else {
				_, err = LoadDAX(s, strings.NewReader(c.input))
			}
			if !errors.Is(err, ErrBadSize) {
				t.Fatalf("err = %v, want ErrBadSize", err)
			}
			if !strings.Contains(err.Error(), c.names) {
				t.Fatalf("error %q does not name %s", err, c.names)
			}
		})
	}

	// Zero stays legal in both formats: a zero-work task, and in DOT a
	// zero-size edge is a plain control dependency.
	s := New(platform.New(), exactConfig())
	tasks, err := LoadDOT(s, strings.NewReader(`digraph { a [size=0]; a -> b [size=0]; }`))
	if err != nil || len(tasks) != 2 {
		t.Fatalf("zero-size DOT: %d tasks, err %v; want 2 tasks", len(tasks), err)
	}
	if _, err := LoadDAX(New(platform.New(), exactConfig()), strings.NewReader(daxWithSizes("0", "0"))); err != nil {
		t.Fatalf("zero-size DAX: %v", err)
	}
}

// FuzzLoadDOT: whatever the input, LoadDOT either fails or returns
// only tasks with a finite, non-negative amount. The seed corpus lives
// in testdata/fuzz/FuzzLoadDOT.
func FuzzLoadDOT(f *testing.F) {
	f.Add(sampleDOT)
	f.Fuzz(func(t *testing.T, input string) {
		s := New(platform.New(), exactConfig())
		tasks, err := LoadDOT(s, strings.NewReader(input))
		if err != nil {
			return
		}
		for _, task := range tasks {
			if a := task.Amount(); !(a >= 0) || math.IsInf(a, 1) {
				t.Fatalf("task %q loaded with amount %g", task.Name(), a)
			}
		}
	})
}

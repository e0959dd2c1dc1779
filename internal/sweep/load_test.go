package sweep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadRejectsUnknownField: a key the spec does not define — a
// removed knob or a misspelling — fails the load and names the field,
// instead of silently running a different grid.
func TestLoadRejectsUnknownField(t *testing.T) {
	const grid = `"platforms":[{"name":"c","kind":"cluster","hosts":2}],` +
		`"workloads":[{"name":"w","kind":"layered","layers":2,"width":2}],` +
		`"schedulers":["minmin"],"seeds":[1]`
	cases := []struct{ name, body, field string }{
		{"removed solver knob", `{"name":"x",` + grid + `,"solvers":[{"name":"s","workers":4}]}`, "workers"},
		{"removed completion knob", `{"name":"x",` + grid + `,"solvers":[{"name":"s","sequential":true}]}`, "sequential"},
		{"misspelt fault key", `{"name":"x",` + grid + `,"faults":[{"name":"f","mtfb":5}]}`, "mtfb"},
		{"unknown top-level key", `{"name":"x",` + grid + `,"seed":3}`, "seed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Load(writeSpec(t, c.body))
			if err == nil {
				t.Fatal("Load accepted a spec with an unknown field")
			}
			if !strings.Contains(err.Error(), `"`+c.field+`"`) {
				t.Fatalf("error %q does not name field %q", err, c.field)
			}
		})
	}
	if _, err := Load(writeSpec(t, `{"name":"x",`+grid+`}`)); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if _, err := Load(writeSpec(t, `{"name":"x",`+grid+`} {}`)); err == nil {
		t.Fatal("Load accepted trailing data after the spec")
	}
}

// TestLoadRoundTrip: a marshalled built-in spec loads back to the same
// grid, so every field the spec writes is one Load accepts.
func TestLoadRoundTrip(t *testing.T) {
	data, err := json.Marshal(Faulty())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(writeSpec(t, string(data)))
	if err != nil {
		t.Fatalf("Load(marshalled Faulty): %v", err)
	}
	want := Faulty()
	if err := want.Validate(); err != nil { // Load validates, which fills axis defaults
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the spec:\n got  %+v\n want %+v", got, want)
	}
}

package main

import "testing"

// TestDoctor runs every doctor check as a subtest named as the doctor
// prints it, so `go test ./...` fails whenever `cmppower doctor` would.
func TestDoctor(t *testing.T) {
	for _, c := range doctorChecks {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			if err := c.fn(); err != nil {
				t.Fatalf("exit code %d: %v", c.code, err)
			}
		})
	}
}

// TestDoctorTable pins each check's name, position and exit code: scripts
// match on them, so renaming, reordering or renumbering a check is a
// breaking change.
func TestDoctorTable(t *testing.T) {
	want := []struct {
		name string
		code int
	}{
		{"simulator determinism", 1},
		{"MESI coherence under fuzz", 1},
		{"power calibration at the design point", 1},
		{"analytic Scenario II shape", 1},
		{"memory-gap effect present", 1},
		{"fault injector round-trip", 2},
		{"DTM contains thermal emergency", 3},
		{"context cancel stops a sweep", 4},
		{"parallel sweep matches serial", 5},
		{"batched engine matches reference loop", 6},
		{"manifest identical across -j", 7},
		{"serve round-trip deterministic", 8},
		{"router fleet invisible under faults", 9},
		{"warm-fork sweep matches cold", 10},
		{"surrogate path exact-invisible and bound-honest", 11},
		{"scenario IR faithful, content-addressed, 3D-sane", 12},
	}
	if len(doctorChecks) != len(want) {
		t.Fatalf("doctor has %d checks, want %d", len(doctorChecks), len(want))
	}
	for i, w := range want {
		if c := doctorChecks[i]; c.name != w.name || c.code != w.code {
			t.Errorf("check %d is %q (exit %d), want %q (exit %d)", i+1, c.name, c.code, w.name, w.code)
		}
	}
}

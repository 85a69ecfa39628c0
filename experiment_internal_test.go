package tooleval

import (
	"strings"
	"testing"
)

// TestValidateErrorPaths pins every rejection ExperimentSpec.validate
// can produce: each Kind's missing-field message, the unknown Kind, and
// the empty Kind. The messages are part of the batch API's contract —
// Submit/Stream/SubmitAll surface them verbatim (prefixed with the spec
// index), so a drift here is user-visible.
func TestValidateErrorPaths(t *testing.T) {
	valid := map[string]ExperimentSpec{
		KindPingPong:  {Kind: KindPingPong, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{0}},
		KindBroadcast: {Kind: KindBroadcast, Platform: "sun-ethernet", Tool: "p4", Procs: 2, Sizes: []int{0}},
		KindRing:      {Kind: KindRing, Platform: "sun-ethernet", Tool: "p4", Procs: 2, Sizes: []int{0}},
		KindGlobalSum: {Kind: KindGlobalSum, Platform: "sun-ethernet", Tool: "p4", Procs: 2, Sizes: []int{10}},
		KindApp:       {Kind: KindApp, Platform: "sun-ethernet", Tool: "p4", App: "jpeg", ProcsList: []int{1}, Scale: 0.1},
		KindEvaluate:  {Kind: KindEvaluate, Scale: 0.1},
	}
	for kind, spec := range valid {
		if err := spec.validate(); err != nil {
			t.Fatalf("valid %s spec rejected: %v", kind, err)
		}
	}

	tests := []struct {
		name    string
		mutate  func(ExperimentSpec) ExperimentSpec
		base    string
		wantMsg string
	}{
		{"pingpong no sizes", clearSizes, KindPingPong, "pingpong: Sizes required"},
		{"broadcast no sizes", clearSizes, KindBroadcast, "broadcast: Sizes required"},
		{"broadcast procs 0", clearProcs, KindBroadcast, "broadcast: Procs = 0, need >= 2"},
		{"broadcast procs 1", setProcs(1), KindBroadcast, "broadcast: Procs = 1, need >= 2"},
		{"ring no sizes", clearSizes, KindRing, "ring: Sizes required"},
		{"ring procs 0", clearProcs, KindRing, "ring: Procs = 0, need >= 2"},
		{"globalsum no sizes", clearSizes, KindGlobalSum, "globalsum: Sizes required"},
		{"globalsum procs 0", clearProcs, KindGlobalSum, "globalsum: Procs = 0, need >= 2"},
		{"app no app", func(s ExperimentSpec) ExperimentSpec { s.App = ""; return s }, KindApp, "app: App required"},
		{"app in table 2 only", func(s ExperimentSpec) ExperimentSpec { s.App = "matmul"; return s }, KindApp, "unknown application"},
		{"app unknown app", func(s ExperimentSpec) ExperimentSpec { s.App = "nonexistent"; return s }, KindApp, "unknown application"},
		{"app no procslist", func(s ExperimentSpec) ExperimentSpec { s.ProcsList = nil; return s }, KindApp, "app: ProcsList required"},
		{"app zero scale", func(s ExperimentSpec) ExperimentSpec { s.Scale = 0; return s }, KindApp, "app: Scale = 0, need > 0"},
		{"app negative scale", func(s ExperimentSpec) ExperimentSpec { s.Scale = -1; return s }, KindApp, "app: Scale = -1, need > 0"},
		{"evaluate zero scale", func(s ExperimentSpec) ExperimentSpec { s.Scale = 0; return s }, KindEvaluate, "evaluate: Scale = 0, need > 0"},
		{"evaluate unknown profile", func(s ExperimentSpec) ExperimentSpec { s.Profile = "operator"; return s }, KindEvaluate, `unknown profile "operator"`},
		{"unknown kind", func(s ExperimentSpec) ExperimentSpec { s.Kind = "frobnicate"; return s }, KindPingPong, `unknown Kind "frobnicate"`},
		{"empty kind", func(s ExperimentSpec) ExperimentSpec { s.Kind = ""; return s }, KindPingPong, "missing Kind"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec := tt.mutate(valid[tt.base])
			err := spec.validate()
			if err == nil {
				t.Fatalf("spec %+v accepted, want %q", spec, tt.wantMsg)
			}
			if !strings.Contains(err.Error(), tt.wantMsg) {
				t.Fatalf("validate error = %q, want it to contain %q", err, tt.wantMsg)
			}
		})
	}
}

func clearSizes(s ExperimentSpec) ExperimentSpec { s.Sizes = nil; return s }
func clearProcs(s ExperimentSpec) ExperimentSpec { s.Procs = 0; return s }
func setProcs(n int) func(ExperimentSpec) ExperimentSpec {
	return func(s ExperimentSpec) ExperimentSpec { s.Procs = n; return s }
}

// TestValidateAcceptsDefaultProfile: an empty Profile selects end-user
// rather than failing.
func TestValidateAcceptsDefaultProfile(t *testing.T) {
	if err := (ExperimentSpec{Kind: KindEvaluate, Scale: 0.1}).validate(); err != nil {
		t.Fatalf("empty profile must default, got %v", err)
	}
}

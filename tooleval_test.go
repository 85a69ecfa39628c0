package tooleval_test

import (
	"context"
	"strings"
	"testing"

	"tooleval"
)

var bg = context.Background()

func TestPlatformsCatalog(t *testing.T) {
	pfs := tooleval.Platforms()
	if len(pfs) != 6 {
		t.Fatalf("got %d platforms, want 6", len(pfs))
	}
	if _, err := tooleval.GetPlatform("sun-ethernet"); err != nil {
		t.Fatal(err)
	}
	if _, err := tooleval.GetPlatform("bogus"); err == nil {
		t.Fatal("unknown platform should error")
	}
}

func TestToolNames(t *testing.T) {
	names := tooleval.ToolNames()
	want := []string{"p4", "pvm", "express"}
	if len(names) != len(want) {
		t.Fatalf("tools = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("tools = %v, want %v", names, want)
		}
	}
}

func TestRunRejectsMissingPort(t *testing.T) {
	sess := tooleval.NewSession()
	_, err := sess.Run(bg, "sun-atm-wan", "express", tooleval.RunConfig{Procs: 2},
		func(c *tooleval.Ctx) (any, error) { return nil, nil })
	if err == nil {
		t.Fatal("express on NYNET must be rejected")
	}
	if !strings.Contains(err.Error(), "no express port") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestPublicPingPong(t *testing.T) {
	sess := tooleval.NewSession()
	ms, err := sess.PingPong(bg, "sun-ethernet", "p4", []int{0, 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[1] <= ms[0] {
		t.Fatalf("ping-pong times %v", ms)
	}
}

func TestPublicRunApp(t *testing.T) {
	sess := tooleval.NewSession()
	m, err := sess.RunApp(bg, "alpha-fddi", "pvm", "montecarlo", []int{1, 2}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Procs) != 2 || m.Seconds[1] >= m.Seconds[0] {
		t.Fatalf("montecarlo should speed up: %+v", m)
	}
}

func TestEvaluateEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation skipped in -short")
	}
	// One session: the three profile evaluations re-weight the same
	// memoized cells.
	sess := tooleval.NewSession()
	for _, profile := range tooleval.Profiles() {
		ev, err := sess.Evaluate(bg, profile, 0.1)
		if err != nil {
			t.Fatalf("%s: %v", profile.Name, err)
		}
		// p4 wins overall under every performance-weighted profile; its
		// TPL score must be a perfect 1.0 (fastest at every primitive).
		if ev.Levels["TPL"]["p4"] < 0.999 {
			t.Fatalf("%s: p4 TPL = %f, want 1.0", profile.Name, ev.Levels["TPL"]["p4"])
		}
		// PVM has the best usability matrix.
		if !(ev.Levels["ADL"]["pvm"] > ev.Levels["ADL"]["p4"]) {
			t.Fatalf("%s: ADL should favor pvm over p4: %v", profile.Name, ev.Levels["ADL"])
		}
		text := tooleval.RenderEvaluation(ev)
		if !strings.Contains(text, profile.Name) {
			t.Fatalf("report missing profile name:\n%s", text)
		}
	}
	if hits, misses := sess.Stats(); misses == 0 || hits == 0 {
		t.Fatalf("stats = %d hits / %d misses; repeated profiles should hit the session cache", hits, misses)
	}
}

func TestDeterministicPublicAPI(t *testing.T) {
	// Two isolated sessions (empty caches) must agree bit-for-bit.
	a, err := tooleval.NewSession().Ring(bg, "sun-ethernet", "pvm", 4, []int{8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := tooleval.NewSession().Ring(bg, "sun-ethernet", "pvm", 4, []int{8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Fatalf("ring not deterministic: %f vs %f", a[0], b[0])
	}
}

func TestProfileByName(t *testing.T) {
	p, err := tooleval.ProfileByName("developer")
	if err != nil || p.Name != "developer" {
		t.Fatalf("ProfileByName(developer) = %+v, %v", p, err)
	}
	if _, err := tooleval.ProfileByName("operator"); err == nil {
		t.Fatal("unknown profile should error")
	}
}

// TestSessionEmptySweep pins the empty-sweep contract of the TPL
// methods: an empty size list is an empty curve, not an error.
func TestSessionEmptySweep(t *testing.T) {
	sess := tooleval.NewSession()
	ms, err := sess.PingPong(bg, "sun-ethernet", "p4", nil)
	if err != nil || ms == nil || len(ms) != 0 {
		t.Fatalf("PingPong(nil sizes) = %v, %v; want empty curve, nil error", ms, err)
	}
	ms, err = sess.GlobalSum(bg, "sun-ethernet", "p4", 4, []int{})
	if err != nil || ms == nil || len(ms) != 0 {
		t.Fatalf("GlobalSum(no lens) = %v, %v; want empty curve, nil error", ms, err)
	}
	if hits, misses := sess.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("empty sweeps touched the cache: %d hits / %d misses", hits, misses)
	}
}

// TestSessionRunReturnsRankZeroValue: Session.Run hands back rank 0's
// return value and charges the run as a simulated cell.
func TestSessionRunReturnsRankZeroValue(t *testing.T) {
	sess := tooleval.NewSession()
	res, err := sess.Run(bg, "sun-ethernet", "pvm", tooleval.RunConfig{Procs: 2},
		func(c *tooleval.Ctx) (any, error) { return c.Rank(), nil })
	if err != nil || res.Value.(int) != 0 {
		t.Fatalf("Run = %+v, %v; want rank 0's value", res, err)
	}
}

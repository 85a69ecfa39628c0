package bench

import (
	"math"
	"strings"
	"testing"

	"tooleval/internal/core"
	"tooleval/internal/paperdata"
)

func TestTable3AgainstPaper(t *testing.T) {
	t3, err := sharedH.Table3(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	// Every simulated curve must stay within a factor band of the
	// paper's published value at every size — the reproduction's
	// headline calibration guarantee — and the geometric mean of the
	// per-cell error max(sim/paper, paper/sim) must stay under its own
	// bound. Both bounds are a ratchet: they sit just above the measured
	// worst cell (1.786x) and geometric mean (1.189x) and may only
	// tighten.
	const (
		maxRatio   = 1.85
		maxGeomean = 1.20
	)
	logSum, cells := 0.0, 0
	for _, net := range []string{"ethernet", "atm-lan", "atm-wan"} {
		for tool, sim := range t3.TimesMs[net] {
			paper, ok := paperdata.Table3[tool][net]
			if !ok {
				t.Fatalf("unexpected simulated column %s/%s", tool, net)
			}
			for i := range sim {
				ratio := sim[i] / paper[i]
				if ratio > maxRatio || ratio < 1/maxRatio {
					t.Errorf("%s/%s @%dKB: sim %.2f vs paper %.2f (ratio %.2f)",
						net, tool, t3.SizesBytes[i]/1024, sim[i], paper[i], ratio)
				}
				logSum += math.Abs(math.Log(ratio))
				cells++
			}
		}
	}
	if cells == 0 {
		t.Fatal("Table 3 has no cells to compare")
	}
	if geo := math.Exp(logSum / float64(cells)); geo > maxGeomean {
		t.Errorf("geometric-mean error over %d cells = %.4fx, want <= %.2fx", cells, geo, maxGeomean)
	}
}

func TestTable3OrderingsMatchTable4(t *testing.T) {
	t3, err := sharedH.Table3(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	rankings := core.RankPrimitives(t3.Measurements())
	for _, r := range rankings {
		want, ok := paperdata.Table4[r.Platform]["send/receive"]
		if !ok {
			continue
		}
		if len(r.Tools) < len(want) {
			t.Fatalf("%s: ranked %v, paper has %v", r.Platform, r.Tools, want)
		}
		for i := range want {
			if r.Tools[i] != want[i] {
				t.Fatalf("%s send/receive rank %d = %s, paper says %s (full: %v)",
					r.Platform, i, r.Tools[i], want[i], r.Tools)
			}
		}
	}
}

func TestFullTable4MatchesPaper(t *testing.T) {
	t3, err := sharedH.Table3(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	fig2, err := sharedH.Fig2(bgCtx, 4)
	if err != nil {
		t.Fatal(err)
	}
	fig3, err := sharedH.Fig3(bgCtx, 4)
	if err != nil {
		t.Fatal(err)
	}
	fig4, err := sharedH.Fig4(bgCtx, 4)
	if err != nil {
		t.Fatal(err)
	}
	rankings := Table4FromMeasurements(t3, fig2, fig3, fig4)
	byKey := map[string][]string{}
	for _, r := range rankings {
		byKey[r.Platform+"/"+r.Primitive] = r.Tools
	}
	for platformKey, prims := range paperdata.Table4 {
		for prim, want := range prims {
			got, ok := byKey[platformKey+"/"+prim]
			if !ok {
				// Table 3 only carries send/receive for atm-lan.
				if platformKey == "sun-atm-lan" && prim != "send/receive" {
					continue
				}
				t.Fatalf("no regenerated ranking for %s/%s", platformKey, prim)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%s: got %v, paper %v", platformKey, prim, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s rank %d: got %s, paper %s (full: got %v, paper %v)",
						platformKey, prim, i, got[i], want[i], got, want)
				}
			}
		}
	}
}

func TestFigureRenderAndDat(t *testing.T) {
	fig, err := sharedH.Fig2(bgCtx, 4)
	if err != nil {
		t.Fatal(err)
	}
	text := fig.Render()
	for _, want := range []string{"Broadcast", "sun-ethernet", "sun-atm-wan", "p4", "pvm"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
	dat := fig.DatFile()
	if !strings.HasPrefix(dat, "# fig2") {
		t.Fatalf("dat header wrong: %q", dat[:40])
	}
	lines := strings.Split(strings.TrimSpace(dat), "\n")
	dataLines := 0
	for _, l := range lines {
		if !strings.HasPrefix(l, "#") {
			dataLines++
		}
	}
	if dataLines != len(StandardSizes()) {
		t.Fatalf("dat has %d data rows, want %d", dataLines, len(StandardSizes()))
	}
}

func TestTable3RenderSideBySide(t *testing.T) {
	t3, err := sharedH.Table3(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	text := t3.Render()
	for _, want := range []string{"Table 3", "ethernet", "atm-lan", "atm-wan", "p4-sim", "p4-ppr"} {
		if !strings.Contains(text, want) {
			t.Fatalf("table 3 render missing %q", want)
		}
	}
}

func TestExperimentsList(t *testing.T) {
	exps := Experiments()
	if len(exps) != 10 {
		t.Fatalf("got %d experiments, want 10 (T3, T4, F2-F8, ADL)", len(exps))
	}
}

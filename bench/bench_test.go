package main

import (
	"regexp"
	"sort"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func equalNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	g, w := append([]string(nil), got...), append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Errorf("%s: %d names, want %d\n got  %v\n want %v", what, len(g), len(w), g, w)
		return
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: name %q, want %q", what, g[i], w[i])
		}
	}
}

// TestSmoke runs a 2-home, 1-day cut of every workload through the whole
// lifecycle, traced, and holds what it emits against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", spec.RunSeconds, runSeconds)
	}
	var wantE2E, wantLayer []string
	for _, m := range spec.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range spec.PerLayer {
		wantLayer = append(wantLayer, m.Name)
	}
	for _, n := range append(append([]string(nil), wantE2E...), wantLayer...) {
		if !nameRE.MatchString(n) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]{1,64}", n)
		}
	}
	checkDefs := func(what string, defs []metricDef, spec []specMetric) {
		byName := map[string]specMetric{}
		for _, m := range spec {
			byName[m.Name] = m
		}
		for _, d := range defs {
			m, ok := byName[d.Name]
			if !ok {
				t.Errorf("%s: %s is missing from BENCHMARK.json", what, d.Name)
			} else if m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s: %s is %s/%s here, %s/%s in BENCHMARK.json", what, d.Name, d.Unit, d.Better, m.Unit, m.Better)
			}
		}
	}
	checkDefs("end_to_end", endToEnd, spec.EndToEnd)
	checkDefs("per_layer", perLayer, spec.PerLayer)

	ws, err := workloads(1)
	if err != nil {
		t.Fatal(err)
	}
	var gotWorkloads, wantWorkloads []string
	whys := map[string]string{}
	for _, w := range spec.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
		whys[w.Name] = w.Why
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is not [A-Za-z0-9_.-]{1,64}", w.Name)
		}
	}
	dir := t.TempDir()
	for _, w := range ws {
		gotWorkloads = append(gotWorkloads, w.Name)
		if whys[w.Name] != w.Why {
			t.Errorf("%s: why differs from BENCHMARK.json", w.Name)
		}
		rep, err := runWorkload(smokeCut(w), runOpts{Seconds: 1, Trace: true, OutDir: dir, Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, c := range rep.Checks {
			if !c.OK {
				t.Errorf("%s: check %q failed: %s", w.Name, c.Name, c.Detail)
			}
		}
		if rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: attempted=%d failed=%d", w.Name, rep.Attempted, rep.Failed)
		}
		equalNames(t, w.Name+" end-to-end", sortedKeys(rep.Metrics), wantE2E)
		want := wantLayer
		if rep.DegradedHost { // the speedup metrics are skipped, not faked
			want = nil
			for _, n := range wantLayer {
				if !needsTwoCPUs[n] {
					want = append(want, n)
				} else if rep.Skipped[n] == "" {
					t.Errorf("%s: %s neither measured nor marked skipped", w.Name, n)
				}
			}
		}
		equalNames(t, w.Name+" per-layer", sortedKeys(rep.Layers), want)
		shares := 0.0
		for _, class := range hourClasses {
			shares += rep.Layers["core."+class+"_share"].Value
		}
		if shares < 0.99 || shares > 1.01 {
			t.Errorf("%s: core.*_share sum to %v, want 1", w.Name, shares)
		}
	}
	equalNames(t, "workloads", gotWorkloads, wantWorkloads)
}

// TestFailedCheckIsReported shows an output check failing: a NaN in a
// Result series makes the run incorrect, which main turns into exit 1.
func TestFailedCheckIsReported(t *testing.T) {
	w, err := findWorkload("ems8", 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runWorkload(smokeCut(w), runOpts{Seconds: 0.2, OutDir: t.TempDir(), Quick: true, InjectNaN: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct {
		t.Fatal("a NaN in DailySavedFrac passed the output checks")
	}
}

// TestCompareJudges feeds -compare's verdict rule the three cases.
func TestCompareJudges(t *testing.T) {
	d := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	for _, tc := range []struct {
		a, b []float64
		want string
	}{
		{[]float64{100, 101, 99, 100}, []float64{103, 104, 102, 103}, "ok"},
		{[]float64{100, 101, 99, 100}, []float64{120, 121, 119, 120}, "regressed"},
		{[]float64{100, 140, 60, 100}, []float64{103, 104, 102, 103}, "unresolved"},
	} {
		if got, _ := judge(d, tc.a, tc.b); got != tc.want {
			t.Errorf("judge(%v, %v) = %s, want %s", tc.a, tc.b, got, tc.want)
		}
	}
}

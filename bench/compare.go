package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from path, or from the working directory
// or its parent (the harness runs from bench/ under `go run -C bench`).
func loadSpec(path string) (*benchSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var lastErr error
	for _, c := range candidates {
		blob, err := os.ReadFile(c)
		if err != nil {
			lastErr = err
			continue
		}
		var spec benchSpec
		if err := json.Unmarshal(blob, &spec); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", c, err)
		}
		return &spec, nil
	}
	return nil, fmt.Errorf("bench: BENCHMARK.json: %w", lastErr)
}

func loadResults(path string) (*resultFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var f resultFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &f, nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them, the rule the benchmark
// driver uses for its spreads. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		n := len(s)
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median; one run
// has no spread to show.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / median(xs))
}

// untracedValues gathers one metric's values over a workload's untraced
// runs (end-to-end metrics are measured with tracing off).
func untracedValues(f *resultFile, workload, metric string) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		} else if v, ok := r.Extra[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// compareFiles prints, per (workload, end-to-end metric), both medians, the
// change and the bound, and labels the row ok, regressed, or unresolved
// (spread wider than the bound). It reports whether anything regressed.
func compareFiles(w io.Writer, aPath, bPath, specPath string) (regressed bool, err error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadResults(aPath)
	if err != nil {
		return false, err
	}
	b, err := loadResults(bPath)
	if err != nil {
		return false, err
	}
	defs := make([]metricDef, 0, len(spec.EndToEnd)+len(workloadOnly))
	for _, m := range spec.EndToEnd {
		d := metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
		for _, own := range endToEnd {
			if own.Name == m.Name {
				d.Exact = own.Exact
			}
		}
		defs = append(defs, d)
	}
	defs = append(defs, workloadOnly...)

	fmt.Fprintf(w, "A = %s (%s, seed %d)\nB = %s (%s, seed %d)\n", aPath, a.Meta.Commit, a.Seed, bPath, b.Meta.Commit, b.Seed)
	for _, wl := range spec.Workloads {
		ra, rb := firstRun(a, wl.Name), firstRun(b, wl.Name)
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "\n%s: absent from one file\n", wl.Name)
			continue
		}
		fmt.Fprintf(w, "\n%s  config A=%s B=%s", wl.Name, ra.ConfigHash, rb.ConfigHash)
		if ra.ConfigHash != rb.ConfigHash {
			fmt.Fprintf(w, "  DIFFERENT CONFIGURATIONS: the rows below do not compare like with like")
		}
		fmt.Fprintf(w, "\n  %-28s %14s %14s %9s %7s  %s\n", "metric", "A median", "B median", "change", "bound", "verdict")
		for _, d := range defs {
			xa, xb := untracedValues(a, wl.Name, d.Name), untracedValues(b, wl.Name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			verdict, worse := judge(d, xa, xb)
			if verdict == "regressed" {
				regressed = true
			}
			if d.Exact {
				if equalSets(xa, xb) {
					verdict += ", identical"
				} else {
					verdict += ", differs"
				}
			}
			fmt.Fprintf(w, "  %-28s %14.6g %14.6g %+8.2f%% %6.1f%%  %s  [%s, n=%d/%d]\n",
				d.Name, median(xa), median(xb), 100*worse, 100*d.Bound, verdict, d.Unit, len(xa), len(xb))
		}
		fa, fb := failShare(a, wl.Name), failShare(b, wl.Name)
		verdict := "ok"
		if fb > fa {
			verdict, regressed = "regressed", true
		}
		fmt.Fprintf(w, "  %-28s %14.6g %14.6g %27s\n", "failed/attempted", fa, fb, verdict)
		digest := "identical"
		if ra.Digest != rb.Digest {
			digest = "differs (expected only when the change touches arithmetic or the seed differs)"
		}
		fmt.Fprintf(w, "  %-28s %14s %14s  %s\n", "result_digest", ra.Digest, rb.Digest, digest)
	}
	return regressed, nil
}

// judge labels one row. worse is B's median against A's as a share of A's,
// signed so that positive means worse.
func judge(d metricDef, xa, xb []float64) (verdict string, worse float64) {
	ma, mb := median(xa), median(xb)
	worse = (mb - ma) / math.Abs(ma)
	if d.Better == "higher" {
		worse = -worse
	}
	if worse > d.Bound {
		return "regressed", worse
	}
	if (spread(xa) > d.Bound || spread(xb) > d.Bound) && !allBetter(d, xa, xb) {
		return "unresolved", worse
	}
	return "ok", worse
}

// allBetter reports whether every run of B reads better than every run of A.
func allBetter(d metricDef, xa, xb []float64) bool {
	for _, va := range xa {
		for _, vb := range xb {
			if (d.Better == "higher" && vb <= va) || (d.Better != "higher" && vb >= va) {
				return false
			}
		}
	}
	return true
}

func equalSets(xa, xb []float64) bool {
	for _, va := range xa {
		for _, vb := range xb {
			if va != vb {
				return false
			}
		}
	}
	return true
}

func firstRun(f *resultFile, workload string) *report {
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			return r
		}
	}
	return nil
}

func failShare(f *resultFile, workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// Command bench is the repository's benchmark of record: five workloads,
// each run through the product's whole lifecycle in a process of its own,
// reporting the end-to-end metrics BENCHMARK.json names and, in a separate
// traced run, a per-layer table measured from outside the layers.
//
//	go run -C bench . -all -seed 1 -out out/run.json        every workload, tracing off
//	go run -C bench . -all -trace 1 -seed 1                 the traced run (layer table, trace overhead)
//	go run -C bench . -workload fed24 -seed 1               one workload
//	go run -C bench . -compare out/a.json out/b.json        judge B against A with BENCHMARK.json's bounds
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/benchmeta"
)

// runSeconds is BENCHMARK.json's run_seconds, the default of -seconds.
const runSeconds = 20

// resultFile is what -all writes: a header that says which code ran where,
// then every run's full report (configuration included).
type resultFile struct {
	Meta         benchmeta.Meta `json:"meta"`
	Seed         int64          `json:"seed"`
	Seconds      float64        `json:"seconds"`
	Traced       bool           `json:"traced"`
	NumCPU       int            `json:"nproc"`
	PinnedProcs  int            `json:"pinned_procs"`
	DegradedHost bool           `json:"degraded_host"`
	Runs         []*report      `json:"runs"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process")
		all     = flag.Bool("all", false, "run every workload, each in a child process")
		seed    = flag.Int64("seed", 1, "workload seed (the same seed gives the same inputs)")
		seconds = flag.Float64("seconds", runSeconds, "run length: the open-loop read window lasts a workload's share of it")
		trace   = flag.Int("trace", 0, "1 = the traced run: spans, the per-layer table, trace overhead")
		out     = flag.String("out", "", "-all: result file (default out/run.json, or out/trace.json when tracing)")
		repeat  = flag.Int("repeat", 1, "-all: runs per workload, so -compare can see the spread")
		outDir  = flag.String("dir", "out", "directory for trace files and the serve phase's checkpoint")
		repPath = flag.String("report", "", "-workload: also write the full report as JSON here")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		spec    = flag.String("spec", "", "path of BENCHMARK.json (default: ./ or ../)")
	)
	flag.Parse()
	if *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fatalf("bench: need -seconds > 0, -repeat >= 1 and -trace 0 or 1")
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("bench: -compare takes two result files")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *spec)
		if err != nil {
			fatalf("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
	case *all:
		if *out == "" {
			*out = filepath.Join(*outDir, "run.json")
			if *trace == 1 {
				*out = filepath.Join(*outDir, "trace.json")
			}
		}
		ok, err := runAll(*seed, *seconds, *trace == 1, *repeat, *outDir, *out)
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	case *name != "":
		w, err := findWorkload(*name, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		rep, err := runWorkload(w, runOpts{Seconds: *seconds, Trace: *trace == 1, OutDir: *outDir})
		if err != nil {
			fatalf("%v", err)
		}
		printReport(os.Stdout, rep)
		if *repPath != "" {
			if err := writeJSON(*repPath, rep); err != nil {
				fatalf("%v", err)
			}
		}
		if err := printDriverLine(os.Stdout, rep); err != nil {
			fatalf("%v", err)
		}
		if !rep.Correct {
			os.Exit(1)
		}
	default:
		fatalf("bench: give -workload <name>, -all or -compare; see README.md")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encoding %s: %w", path, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}

// driverLine is the one-line result the benchmark driver reads.
type driverLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// printDriverLine prints the last line of standard output: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func printDriverLine(w *os.File, rep *report) error {
	line := driverLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics}
	if rep.Traced {
		line.Metrics = rep.Layers
	}
	blob, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("bench: encoding result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

// printReport prints every metric by name with its unit, the operation
// counts, the output checks and the warnings.
func printReport(w *os.File, rep *report) {
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%g  traced=%v  config=%s  degraded_host=%v\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Traced, rep.ConfigHash, rep.DegradedHost)
	fmt.Fprintf(w, "   %s\n", rep.Why)
	printMetrics(w, "end-to-end", endToEnd, rep.Metrics)
	printMetrics(w, "end-to-end, this workload only", workloadOnly, rep.Extra)
	if rep.Traced {
		printMetrics(w, "per-layer", perLayer, rep.Layers)
		printMetrics(w, "per-layer, this workload only", layerOnly, rep.LayerExtra)
		for _, name := range sortedKeys(rep.Skipped) {
			fmt.Fprintf(w, "  SKIPPED %-34s skipped: %s\n", name, rep.Skipped[name])
		}
	}
	keys := sortedKeys(rep.Samples)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, rep.Samples[k])
	}
	fmt.Fprintf(w, "  samples: %s\n", strings.Join(parts, " "))
	fmt.Fprintf(w, "  operations: attempted=%d failed=%d\n", rep.Attempted, rep.Failed)
	fmt.Fprintf(w, "  result_digest: %s\n", rep.Digest)
	for _, c := range rep.Checks {
		if c.OK {
			fmt.Fprintf(w, "  check ok      %s\n", c.Name)
		} else {
			fmt.Fprintf(w, "  check FAILED  %s: %s\n", c.Name, c.Detail)
		}
	}
	for _, msg := range rep.Warnings {
		fmt.Fprintf(w, "  WARNING %s\n", msg)
	}
	if rep.TraceFile != "" {
		fmt.Fprintf(w, "  trace: %s\n", rep.TraceFile)
	}
}

func sortedKeys[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func printMetrics(w *os.File, title string, defs []metricDef, vals metricSet) {
	if len(vals) == 0 {
		return
	}
	fmt.Fprintf(w, "  %s:\n", title)
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			fmt.Fprintf(w, "    %-34s %14.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
}

// runAll runs every workload repeat times, each run in a child process so
// peak RSS and GC state belong to one workload, and writes the result
// file. A traced -all runs each workload untraced first: the pair gives
// trace_overhead_frac.
func runAll(seed int64, seconds float64, traced bool, repeat int, outDir, outPath string) (ok bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return false, fmt.Errorf("bench: locating own binary: %w", err)
	}
	ws, err := workloads(seed)
	if err != nil {
		return false, err
	}
	file := resultFile{
		Meta: benchmeta.Collect("benchmark", 1), Seed: seed, Seconds: seconds, Traced: traced,
		NumCPU: runtime.NumCPU(), PinnedProcs: pinnedProcs, DegradedHost: runtime.NumCPU() < pinnedProcs,
	}
	file.Meta.Gomaxprocs = pinnedProcs // what every child pins, not this parent's setting
	if file.DegradedHost {
		fmt.Printf("DEGRADED HOST: %d CPU(s) < %d; core.speedup_p2 and sched.speedup_p2 are skipped, not measured\n",
			file.NumCPU, pinnedProcs)
	}
	ok = true
	child := func(name string, trace bool) *report {
		tmp := filepath.Join(outDir, fmt.Sprintf("report-%s-%d.json", name, os.Getpid()))
		defer os.Remove(tmp)
		t := "0"
		if trace {
			t = "1"
		}
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", t, "-dir", outDir, "-report", tmp)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Printf("bench: %s: %v\n", name, err)
			ok = false
		}
		blob, err := os.ReadFile(tmp)
		if err != nil {
			fmt.Printf("bench: %s left no report: %v\n", name, err)
			ok = false
			return nil
		}
		var rep report
		if err := json.Unmarshal(blob, &rep); err != nil {
			fmt.Printf("bench: %s report: %v\n", name, err)
			ok = false
			return nil
		}
		return &rep
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, fmt.Errorf("bench: %w", err)
	}
	for _, w := range ws {
		for i := 0; i < repeat; i++ {
			plain := child(w.Name, false)
			if plain != nil {
				file.Runs = append(file.Runs, plain)
			}
			if !traced {
				continue
			}
			tr := child(w.Name, true)
			if tr == nil {
				continue
			}
			if tr.LayerExtra == nil {
				tr.LayerExtra = metricSet{}
			}
			if plain != nil {
				frac := 1 - tr.Metrics["home_days_per_s"].Value/plain.Metrics["home_days_per_s"].Value
				tr.LayerExtra.set(layerOnly, "trace_overhead_frac", frac)
				fmt.Printf("  %s trace_overhead_frac %.4f fraction\n", w.Name, frac)
				if frac >= 0.02 {
					fmt.Printf("  WARNING %s: tracing cost %.1f%% of throughput, want < 2%%\n", w.Name, 100*frac)
				}
			}
			file.Runs = append(file.Runs, tr)
		}
	}
	if err := writeJSON(outPath, file); err != nil {
		return false, err
	}
	fmt.Printf("wrote %s (%d runs)\n", outPath, len(file.Runs))
	return ok, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// steadyMain runs every workload n times, each run a separate process
// on its own seed, and prints each metric's median, quartiles, spread
// and range: the figures the benchmark's bounds are set from. Runs
// interleave the workloads, so drift in the host's load over the
// session reaches all of them alike.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	n := fs.Int("n", 10, "runs per workload")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 summarizes traced runs (per-layer metrics)")
	seed0 := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return 1
	}
	type runOut struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	runs := map[string][]runOut{}
	defs := endToEndDefs
	if *trace == 1 {
		defs = perLayerDefs
	} else {
		defs = append(slices.Clone(defs), metricDef{"window ops_per_s", "1/s"},
			metricDef{"window op_p50_us", "us"}, metricDef{"window cpu_us_per_op", "us"})
	}
	steal := regexp.MustCompile(`host steal (\S+)`)
	// The untraced run reports its window's timings on a line of their
	// own; their spread is summarized beside the bounded metrics.
	window := regexp.MustCompile(`window: .* ops_per_s (\S+), op_p50_us (\S+), cpu_us_per_op (\S+),`)
	fmt.Println(envLine())
	status := 0
	for i := range *n {
		for _, w := range workloadNames {
			seed := *seed0 + int64(i)
			cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(*trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var r runOut
			if err == nil {
				err = json.Unmarshal([]byte(lines[len(lines)-1]), &r)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench steady: %s seed %d: %v\n", w, seed, err)
				status = 1
				continue
			}
			if m := window.FindSubmatch(out); m != nil && *trace == 0 {
				for i, name := range []string{"ops_per_s", "op_p50_us", "cpu_us_per_op"} {
					v, _ := strconv.ParseFloat(string(m[i+1]), 64)
					r.Metrics["window "+name] = metric{Value: v}
				}
			}
			if !r.Correct || r.Failed > 0 {
				status = 1
			}
			runs[w] = append(runs[w], r)
			st := "?"
			if m := steal.FindSubmatch(out); m != nil {
				st = string(m[1])
			}
			fmt.Printf("run %-8s seed %-3d correct %-5t attempted %-9d failed %-3d steal %-7s %s\n",
				w, seed, r.Correct, r.Attempted, r.Failed, st, brief(r.Metrics, defs))
		}
	}
	for _, w := range workloadNames {
		rs := runs[w]
		var attempted, failed int64
		for _, r := range rs {
			attempted += r.Attempted
			failed += r.Failed
		}
		fmt.Printf("\n%s: %d runs, attempted %d failed %d\n", w, len(rs), attempted, failed)
		fmt.Printf("  %-36s %14s %14s %14s %8s %14s %14s %s\n", "metric", "median", "q1", "q3", "spread", "min", "max", "unit")
		for _, d := range defs {
			var xs []float64
			for _, r := range rs {
				xs = append(xs, r.Metrics[d.name].Value)
			}
			if len(xs) == 0 {
				continue
			}
			med := median(xs)
			q1, q3 := quartiles(xs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo, hi = min(lo, x), max(hi, x)
			}
			fmt.Printf("  %-36s %14.6g %14.6g %14.6g %7.2f%% %14.6g %14.6g %s\n", d.name, med, q1, q3, 100*spread, lo, hi, d.unit)
		}
	}
	return status
}

// brief renders a run's first few metrics on one line.
func brief(ms map[string]metric, defs []metricDef) string {
	var b bytes.Buffer
	for _, d := range defs[:min(len(defs), 7)] {
		if m, ok := ms[d.name]; ok {
			fmt.Fprintf(&b, "%s=%.4g ", d.name, m.Value)
		}
	}
	return strings.TrimSpace(b.String())
}

// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed time, checks every result it produces, and
// prints its metrics; the last line of its output is one JSON object.
//
//	perfbench --workload queens --seed 1 --seconds 20 --trace 0
//	perfbench steady -n 10 -seconds 20
//
// With --trace 0 it reports the end-to-end metrics of an unwrapped
// run; with --trace 1 it wraps the layers' interfaces and reports the
// per-layer metrics instead. The steady subcommand runs every workload
// repeatedly and prints each metric's spread. README.md explains the
// workloads and the metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mpcrete/internal/engine"
)

const (
	setupWarm        = 10
	setupRepeats     = 51
	warmup           = 500 * time.Millisecond
	accountingSolves = 2
)

type metricDef struct{ name, unit string }

// endToEndDefs are the metrics of an untraced run, in print order.
var endToEndDefs = []metricDef{
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayerDefs are the metrics of a traced run, in print order: first
// the traced window's timings, which swing with the host's load too
// much to bound, then the layers. A layer a workload does not exercise
// reads 0 on it.
var perLayerDefs = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"ops5.parse_us", "us"},
	{"engine.compile_us", "us"},
	{"rete.apply_us_per_cycle", "us"},
	{"rete.apply_share", "ratio"},
	{"rete.changes_per_cycle", "count"},
	{"rete.inst_changes_per_cycle", "count"},
	{"rete.allocs_per_cycle", "count"},
	{"engine.step_self_us_per_cycle", "us"},
	{"engine.conflict_set_mean", "count"},
	{"engine.allocs_per_cycle", "count"},
	{"parallel.apply_us_per_cycle", "us"},
	{"parallel.activations_per_cycle", "count"},
	{"parallel.msgs_per_cycle", "count"},
	{"parallel.worker_imbalance", "ratio"},
	{"parallel.uncovered_us_per_cycle", "us"},
	{"transport.pushes_per_cycle", "count"},
	{"transport.msgs_per_push", "ratio"},
	{"transport.push_us_per_cycle", "us"},
	{"transport.drain_wait_us_per_cycle", "us"},
	{"server.open_us_p50", "us"},
	{"server.assert_us_p50", "us"},
	{"server.run_us_p50", "us"},
	{"server.snapshot_us_p50", "us"},
	{"server.close_us_p50", "us"},
	{"server.match_us_per_session", "us"},
	{"server.outside_match_us_per_session", "us"},
}

var workloadNames = []string{"queens", "tourney", "parallel", "server"}

type runConfig struct {
	seed    int64
	seconds int
	trace   bool
}

// loadFor builds the named workload.
func loadFor(name string, cfg runConfig) (interface {
	run(runConfig) (*result, error)
}, error) {
	// The load comes from this one process: no more match workers or
	// client connections than the host has CPUs.
	conc := min(2, runtime.NumCPU())
	queens := func(s *engine.Session, _, _ []firing) error { return checkQueens(factsOf(s.WMEs()), queensN) }
	switch name {
	case "queens":
		return &engineLoad{prog: queensProgram, wmes: queensWMEs(queensN), check: queens}, nil
	case "tourney":
		teams, slots, wmes := tourneyInput(tourneyTeams, tourneySlots, cfg.seed)
		check := func(s *engine.Session, _, _ []firing) error { return checkTourney(factsOf(s.WMEs()), teams, slots) }
		return &engineLoad{prog: tourneyProgram, wmes: wmes, check: check}, nil
	case "parallel":
		check := func(_ *engine.Session, fired, ref []firing) error { return checkTranscript(fired, ref) }
		return &engineLoad{prog: queensProgram, wmes: queensWMEs(queensN), workers: conc, check: check}, nil
	case "server":
		return &serverLoad{clients: conc}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// phases holds the durations, in seconds, of each timed set-up.
type phases struct{ setup, parse, compile []float64 }

// setupTimes is one set-up's duration and the parse and compile parts
// of it.
type setupTimes struct{ total, parse, compile time.Duration }

// repeatSetups runs setupWarm untimed set-ups, so the process's heap
// and caches are warm, then setupRepeats timed ones. Each starts after
// a forced collection, so the collector does not land inside one
// set-up at random. setup is told which call is the last; the run goes
// on with that one's state.
func repeatSetups(ph *phases, setup func(last bool) (setupTimes, error)) error {
	for i := range setupWarm + setupRepeats {
		runtime.GC()
		t, err := setup(i == setupWarm+setupRepeats-1)
		if err != nil {
			return err
		}
		if i >= setupWarm {
			ph.setup = append(ph.setup, t.total.Seconds())
			ph.parse = append(ph.parse, t.parse.Seconds())
			ph.compile = append(ph.compile, t.compile.Seconds())
		}
	}
	return nil
}

// measure collects one measured window's operations.
type measure struct {
	lat        *hist
	win        *windows
	ops        int64
	allocs     uint64
	allocBytes uint64

	start, end time.Time
	cpu        time.Duration
	steal      stealClock
}

func newMeasure(seconds int) *measure {
	return &measure{lat: newHist(), win: newWindows(time.Now(), seconds)}
}

// reset empties m's tallies for reuse.
func (m *measure) reset() {
	m.lat.reset()
	clear(m.win.counts)
	m.ops, m.allocs, m.allocBytes = 0, 0, 0
}

// op records one completed operation.
func (m *measure) op(d time.Duration, end time.Time) {
	m.lat.add(d)
	m.win.add(end)
	m.ops++
}

func (m *measure) begin() {
	m.steal = readSteal()
	m.cpu = -cpuTime()
	m.start = time.Now()
	m.win.start = m.start
}

func (m *measure) finish() {
	m.end = time.Now()
	m.cpu += cpuTime()
	m.steal = m.steal.since()
}

// cpuTime is the process's user+system time over all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set size in MB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// stealClock reads the host's cumulative CPU time from /proc/stat; the
// difference of two readings gives the share of CPU time the
// hypervisor withheld (steal) over the interval.
type stealClock struct {
	steal, total int64
	ok           bool
}

func readSteal() stealClock {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return stealClock{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return stealClock{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return stealClock{}
	}
	var c stealClock
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return stealClock{}
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			c.total += v
		}
		if i == 7 {
			c.steal = v
		}
	}
	c.ok = true
	return c
}

// since turns a start reading into the interval's delta.
func (c stealClock) since() stealClock {
	now := readSteal()
	return stealClock{steal: now.steal - c.steal, total: now.total - c.total, ok: c.ok && now.ok}
}

func (c stealClock) String() string {
	if !c.ok || c.total <= 0 {
		return "unknown"
	}
	return fmt.Sprintf("%.2f%%", 100*float64(c.steal)/float64(c.total))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the JSON object printed last, plus
// report lines printed before it.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]metric
	order             []metricDef
	report            []string
}

func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

func (r *result) set(defs []metricDef, values map[string]float64) {
	r.order = defs
	r.metrics = map[string]metric{}
	for _, d := range defs {
		r.metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
}

// endToEnd fills the untraced run's metrics: the ones that hold a
// bound across runs on a host whose speed swings with its neighbours'
// load. Its timings are printed as report lines.
func (r *result) endToEnd(m *measure, ph *phases) {
	ops := float64(m.ops)
	r.set(endToEndDefs, map[string]float64{
		"allocs_per_op":   float64(m.allocs) / ops,
		"alloc_kb_per_op": float64(m.allocBytes) / 1024 / ops,
		"peak_rss_mb":     peakRSS(),
		"setup_s":         median(ph.setup),
	})
	r.windowReport("untraced", m)
}

// timings are the wall-clock and CPU figures of a measured window.
func timings(m *measure) map[string]float64 {
	return map[string]float64{
		"ops_per_s":     m.win.medianRate(m.end),
		"op_p50_us":     m.lat.quantile(0.5) / 1e3,
		"cpu_us_per_op": m.cpu.Seconds() * 1e6 / float64(m.ops),
	}
}

// windowReport notes a window's timings, its latency tail and the
// host's steal time over it.
func (r *result) windowReport(what string, m *measure) {
	t := timings(m)
	r.note("%s window: %.1f s, %d ops, ops_per_s %.1f, op_p50_us %.3f, cpu_us_per_op %.3f, host steal %s",
		what, m.end.Sub(m.start).Seconds(), m.lat.n, t["ops_per_s"], t["op_p50_us"], t["cpu_us_per_op"], m.steal)
	if p, ns, ok := m.lat.tail(); ok {
		r.note("%s window: op latency p%s %.3f us (%d samples, %.0f beyond it)", what,
			strconv.FormatFloat(100*p, 'f', -1, 64), ns/1e3, m.lat.n, float64(m.lat.n)*(1-p))
	}
}

// layerMetrics starts a traced run's metrics with its window's timings
// and the set-up layers every workload exercises; the rest read 0
// until a workload fills them in.
func layerMetrics(m *measure, ph *phases) map[string]float64 {
	v := timings(m)
	v["ops5.parse_us"] = median(ph.parse) * 1e6
	v["engine.compile_us"] = median(ph.compile) * 1e6
	return v
}

func (r *result) print(w *bufio.Writer) error {
	for _, line := range r.report {
		fmt.Fprintln(w, line)
	}
	for _, d := range r.order {
		fmt.Fprintf(w, "%-38s %14.6g %s\n", d.name, r.metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %t\n", r.attempted, r.failed, r.correct)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	w.Write(line)
	w.WriteByte('\n')
	return w.Flush()
}

func envLine() string {
	return fmt.Sprintf("env nproc=%d gomaxprocs=%d go=%s os=%s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	load, err := loadFor(*workload, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "%s workload=%s seed=%d seconds=%d trace=%d\n", envLine(), *workload, *seed, *seconds, *trace)
	out.Flush()
	res, err := load.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := res.print(out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.correct {
		return 1
	}
	return 0
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

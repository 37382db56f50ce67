// Command perfbench is the repository benchmark of the ConZone emulator.
//
// It drives the emulator through its public entry points (config presets,
// host.Controller Submit/PollInto/Recycle, fleet.Run and experiments.Run*)
// on one of four workloads, checks the outputs, and prints every metric by
// name with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 the workload runs once untraced under a CPU profile and once
// more through a tracing backend shim with the lifecycle recorder armed, and
// the metrics are the per-layer ones. See README.md in this directory.
//
// Usage:
//
//	perfbench -workload randread|zonemix|fleet|paper -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	short    bool   // reduced fixed passes and populations; set only by the tests
	outDir   string // where the traced run writes its profile and spans
}

// workloadFunc runs one workload and fills the report.
type workloadFunc func(opt options, rep *report) error

var workloads = map[string]workloadFunc{
	"randread": runRandread,
	"zonemix":  runZonemix,
	"fleet":    runFleet,
	"paper":    runPaper,
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload: randread, zonemix, fleet or paper")
	flag.Uint64Var(&opt.seed, "seed", 1, "workload seed: the generated command stream is a function of it")
	flag.Float64Var(&opt.seconds, "seconds", 10, "host seconds the timed phase measures")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&opt.outDir, "out", ".bench_build/trace", "directory for the traced run's CPU profile and span file")
	flag.Parse()
	opt.trace = trace != 0

	rep, err := run(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !rep.correct() {
		for _, c := range rep.checkFailures {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
		}
		os.Exit(1)
	}
}

// run executes the selected workload, prints the report to w and returns it.
func run(opt options, w io.Writer) (*report, error) {
	fn, ok := workloads[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want randread, zonemix, fleet or paper)", opt.workload)
	}
	if opt.seconds < 0 {
		return nil, errors.New("-seconds must be >= 0")
	}
	rep := newReport(opt)
	if err := fn(opt, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	rep.finish()
	if err := rep.print(w); err != nil {
		return nil, err
	}
	return rep, nil
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's outcome: the checks, the counters behind
// "attempted"/"failed", the digest and every metric by name.
type report struct {
	opt options

	attempted, failed int64
	checkFailures     []string

	digest string // virtual-time digest of the workload's fixed pass

	// named holds every metric the workload produced, keyed by name: the
	// end-to-end metrics of BENCHMARK.json, the workload-specific ones the
	// doc tables name, and (traced runs) the per-layer metrics.
	named map[string]metric
	notes []string // extra human-readable lines (sample counts, digests)
}

func newReport(o options) *report {
	return &report{opt: o, named: map[string]metric{}}
}

// set records a metric.
func (r *report) set(name, unit string, v float64) { r.named[name] = metric{v, unit} }

// check records a failed output check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.checkFailures = append(r.checkFailures, fmt.Sprintf(format, args...))
	}
}

// note adds a human-readable line printed before the result.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.checkFailures) == 0 }

// finish derives the metrics every workload shares.
func (r *report) finish() {
	if r.attempted > 0 {
		r.set("failed_frac", "1", float64(r.failed)/float64(r.attempted))
	}
	if r.failed > 0 {
		r.check(false, "%d of %d attempted operations failed", r.failed, r.attempted)
	}
}

// endToEnd lists the metrics an untraced run reports in its result line
// (BENCHMARK.json end_to_end); they exist on every workload.
var endToEnd = []string{"work_per_s", "setup_s", "heap_peak_mib"}

// print writes the human-readable block and the JSON result line.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d numcpu=%d go=%s\n",
		r.opt.workload, r.opt.seed, r.opt.seconds, r.opt.trace,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "digest %s\n", r.digest)
	names := make([]string, 0, len(r.named))
	for n := range r.named {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.named[n]
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}

	want := endToEnd
	if r.opt.trace {
		want = perLayer
	}
	out := make(map[string]metric, len(want))
	var missing []string
	for _, n := range want {
		m, ok := r.named[n]
		if !ok {
			// A per-layer metric the workload does not exercise reads 0
			// (see the "bypass" column of README.md).
			if !r.opt.trace {
				missing = append(missing, n)
				continue
			}
			m = metric{0, perLayerUnit[n]}
		}
		out[n] = m
	}
	if len(missing) > 0 {
		r.check(false, "workload produced no value for %s", strings.Join(missing, ", "))
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, out}
	if res.Attempted < 1 {
		res.Attempted = 1
		r.check(false, "workload attempted nothing")
		res.Correct = false
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// Command perfbench is diads' end-to-end benchmark. It drives one
// workload through the program's public APIs for a fixed time, checks
// every output, and prints its metrics as one JSON line:
//
//	perfbench --workload fleet|diagnose|ingest --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// alternates plain and traced repetitions, reports the per-layer metrics
// (read from the program's own telemetry, from the public hooks the
// benchmark wraps, and from layer probes on the workload's own data),
// and how much the tracing itself cost.
//
// perfbench/run.sh builds it from the checkout and runs it; see the
// README beside this file for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of diads sees, reported by every
// workload with --trace 0. latency_* is the workload's user-facing
// operation: a diagnosis verdict (diagnose), an evidence POST timed from
// its due time (ingest), a verdict's availability from the start of the
// batch run (fleet).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_heap_mb", "MB"},
	{"success_share", "share"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
}

// perLayer are the traced run's metrics, named after the program's
// modules. A workload reports 0 for a layer it does no work in.
var perLayer = []metricDef{
	{"testbed.simulate_ms_per_inst_hour", "ms"},
	{"sanperf.emit_ms_per_inst_hour", "ms"},
	{"metrics.append_ns", "ns"},
	{"metrics.metrics_for_us", "us"},
	{"metrics.window_stats_us", "us"},
	{"metrics.truncate_us", "us"},
	{"metrics.samples_appended", "count"},
	{"metrics.samples_truncated", "count"},
	{"monitor.observe_us", "us"},
	{"monitor.runs_observed", "count"},
	{"monitor.events", "count"},
	{"monitor.gate_release_us", "us"},
	{"service.queue_wait_ms", "ms"},
	{"service.diagnosis_ms", "ms"},
	{"service.diagnoses", "count"},
	{"service.deduped", "count"},
	{"service.apg_hit_ratio", "ratio"},
	{"service.sd_hit_ratio", "ratio"},
	{"diag.pd_ms", "ms"},
	{"diag.apg_ms", "ms"},
	{"diag.co_ms", "ms"},
	{"diag.da_ms", "ms"},
	{"diag.cr_ms", "ms"},
	{"diag.facts_ms", "ms"},
	{"diag.sd_ms", "ms"},
	{"diag.ia_ms", "ms"},
	{"diag.other_ms", "ms"},
	{"diag.latency_ms", "ms"},
	{"fleet.wave_s", "s"},
	{"fleet.learn_s", "s"},
	{"fleet.waves", "count"},
	{"fleet.events_released", "count"},
	{"fleet.coordinator_share", "share"},
	{"api.handler_ms.ingest_samples", "ms"},
	{"api.handler_ms.ingest_runs", "ms"},
	{"api.handler_ms.ingest_events", "ms"},
	{"api.intake_depth_max", "count"},
	{"api.drain_ms", "ms"},
	{"api.bytes_posted", "bytes"},
	{"api.query_p50_ms", "ms"},
	{"bench.generator_late_ms", "ms"},
	{"bench.trace_overhead_share", "share"},
}

// diagModules are the diagnosis DAG's modules in pipeline order.
var diagModules = []string{"pd", "apg", "co", "da", "cr", "facts", "sd", "ia"}

// workload is one benchmark workload.
type workload interface {
	// setup builds the workload's inputs from the seed and warms the
	// process up (the first repetition in a process runs about twice as
	// slow). It returns one duration per complete set-up it timed.
	setup(seed int64) ([]time.Duration, error)
	// rep runs one repetition of fixed work against fresh program
	// state; traced repetitions also feed the per-layer accumulators.
	rep(traced bool) (*repResult, error)
	// layers returns the per-layer metrics of the traced repetitions,
	// running the layer probes on the workload's own data.
	layers(wall time.Duration) (map[string]float64, error)
}

// repResult is one repetition's outcome.
type repResult struct {
	// setup is the repetition's own set-up time (0 when set-up is
	// shared across repetitions and timed by workload.setup).
	setup time.Duration
	phase phase
	// lat holds the user-facing operation latencies, in ms.
	lat []float64
	// attempted counts operations; failed those refused, erroring, or
	// wrong; wrong those whose output failed a correctness check.
	attempted, failed, wrong int
	// digest is the SHA-256 of the repetition's rendered reports.
	digest string
}

var workloads = map[string]func() workload{
	"fleet":    func() workload { return &fleetWorkload{} },
	"diagnose": func() workload { return &diagnoseWorkload{} },
	"ingest":   func() workload { return &ingestWorkload{} },
}

// tailQuantile is the reported latency tail. The ingest workload's p99
// flips between modes from run to run (a rare stall does or does not
// land among its ~3000 posts), beyond any bound a regression gate can
// hold; its p95 has ~150 samples beyond it. The summary still prints the
// p99.
const tailQuantile = 0.95

// minReps is the fewest repetitions of each kind a run measures, even
// past its time budget.
const minReps = 3

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload: fleet, diagnose or ingest")
	fs.Int64Var(&opt.seed, "seed", 1, "input seed")
	fs.IntVar(&opt.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace == 1
	mk, ok := workloads[opt.workload]
	if !ok || opt.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload fleet|diagnose|ingest, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	res, summary, err := bench(mk(), opt)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprint(stdout, summary)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench runs the workload's set-up, then repetitions until the time
// budget is spent, and assembles the result and a human-readable
// summary.
func bench(w workload, opt options) (*result, string, error) {
	setups, err := w.setup(opt.seed)
	if err != nil {
		return nil, "", fmt.Errorf("setup: %w", err)
	}
	var plain, traced []*repResult
	var digests digestCheck
	res := &result{Correct: true, Metrics: map[string]value{}}
	deadline := time.Now().Add(time.Duration(opt.seconds) * time.Second)
	for i := 0; ; i++ {
		tr := opt.trace && i%2 == 1
		runtime.GC()
		r, err := w.rep(tr)
		if err != nil {
			return nil, "", fmt.Errorf("repetition %d: %w", i, err)
		}
		if !digests.observe(r.digest) {
			warnf("repetition %d: report digest %s differs from %s", i, r.digest, digests.want)
			r.failed++
			r.wrong++
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.wrong > 0 {
			res.Correct = false
		}
		if r.setup > 0 {
			setups = append(setups, r.setup)
		}
		if tr {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		if time.Now().After(deadline) && len(plain) >= minReps && (!opt.trace || len(traced) >= minReps) {
			break
		}
	}
	if res.Attempted < 1 {
		return nil, "", errors.New("no operations attempted")
	}

	var setup, wall, cpu, alloc, heap, lat dist
	for _, d := range setups {
		setup.add(d.Seconds())
	}
	for _, r := range plain {
		wall.add(r.phase.wall.Seconds())
		cpu.add(r.phase.cpu.Seconds())
		alloc.add(float64(r.phase.alloc) / 1e6)
		heap.add(float64(r.phase.peakHeap) / 1e6)
		lat.add(r.lat...)
	}
	var sum strings.Builder
	fmt.Fprintf(&sum, "workload %s seed %d: %d repetitions (%d traced), %d set-ups, report sha256 %s\n",
		opt.workload, opt.seed, len(plain)+len(traced), len(traced), len(setups), digests.want)
	fmt.Fprintf(&sum, "latency over %d plain repetitions: n=%d, %d samples beyond p95, p99 %.4g ms with %d beyond\n",
		len(plain), lat.n(), beyond(lat.n(), 0.95), lat.quantile(0.99), beyond(lat.n(), 0.99))

	if !opt.trace {
		if !lat.supported(tailQuantile) {
			return nil, "", fmt.Errorf("p95 needs %d samples beyond it, have %d of %d",
				minBeyond, beyond(lat.n(), tailQuantile), lat.n())
		}
		vals := map[string]float64{
			"setup_s":        setup.median(),
			"wall_s":         wall.median(),
			"cpu_s":          cpu.median(),
			"alloc_mb":       alloc.median(),
			"peak_heap_mb":   heap.median(),
			"success_share":  1 - float64(res.Failed)/float64(res.Attempted),
			"latency_p50_ms": lat.median(),
			"latency_p95_ms": lat.quantile(tailQuantile),
		}
		if err := fill(res.Metrics, endToEnd, vals); err != nil {
			return nil, "", err
		}
	} else {
		var twall, tcpu dist
		for _, r := range traced {
			twall.add(r.phase.wall.Seconds())
			tcpu.add(r.phase.cpu.Seconds())
		}
		vals, err := w.layers(time.Duration(twall.median() * float64(time.Second)))
		if err != nil {
			return nil, "", fmt.Errorf("layers: %w", err)
		}
		// CPU, not wall: the open loop's wall time is set by its schedule.
		vals["bench.trace_overhead_share"] = tcpu.median()/cpu.median() - 1
		if err := fill(res.Metrics, perLayer, vals); err != nil {
			return nil, "", err
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sum, "  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, sum.String(), nil
}

// warnf reports a failed check on standard error.
func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// fill copies the values of defs into out with their units. A name the
// workload did not set reads 0 (no work in that layer); a value set for
// a name outside defs, or a non-finite one, is an error.
func fill(out map[string]value, defs []metricDef, vals map[string]float64) error {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	for n := range vals {
		if !known[n] {
			return fmt.Errorf("unknown metric %s", n)
		}
	}
	return nil
}

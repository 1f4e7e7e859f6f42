// Command perfbench is the repository's benchmark. It runs one named
// workload against the real memctld/memrouterd binaries or the
// exact-tier simulator, checks every output, and prints the metrics as
// the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run records spans around its calls into each layer, samples the
// daemons' /proc counters, and prints the per-layer metrics instead.
// NOTES.md explains the workloads and what each metric should move.
//
// Usage (from the repository root, through run.sh, which builds
// everything first):
//
//	bash perfbench/run.sh --workload serve-router --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

// runConfig is one run's command line.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	binDir   string // built memctld and memrouterd
	work     string // scratch directory for address files, logs and spans
}

// outcome accumulates one run's figures and check results.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int64
	failed    int64
	failures  []string
	notes     []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the untraced run's metrics. Every workload reports all
// of them; NOTES.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"line_ops_per_s", "1/s"},
	{"write_p50_us", "us"},
	{"write_p99_us", "us"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"cpu_ns_per_op", "ns"},
	{"matrix_s", "s"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

// perLayer lists the traced run's metrics. A layer a workload never
// reaches reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"client.cpu_ns_per_op", "ns"},
		{"client.self_ns_per_op", "ns"},
		{"memrouter.cpu_ns_per_op", "ns"},
		{"memrouter.syscalls_per_frame", "count"},
		{"memrouter.ctx_switches_per_frame", "count"},
		{"memrouter.hop_p50_us", "us"},
		{"memrouter.rss_mb", "MB"},
		{"memserver.cpu_ns_per_op", "ns"},
		{"memserver.syscalls_per_frame", "count"},
		{"memserver.ctx_switches_per_frame", "count"},
		{"memserver.frame_p50_us", "us"},
		{"memserver.frame_p99_us", "us"},
		{"memserver.stall_frames_per_k", "count"},
		{"memserver.boot_s", "s"},
		{"memserver.rss_mb", "MB"},
		{"wear.write_ns", "ns"},
		{"wear.read_ns", "ns"},
		{"wear.remap_moves_per_kwrite", "count"},
		{"core.translate_ns", "ns"},
		{"feistel.fill_ms", "ms"},
		{"feistel.encrypt_ns", "ns"},
		{"pcm.write_ns", "ns"},
		{"seclevel.level_raises", "count"},
		{"detector.alarms", "count"},
		{"exactsim.sim_writes_per_s", "1/s"},
	}
	for _, c := range simCells {
		defs = append(defs, metricDef{"registry.cell_s." + c.scheme + "." + c.attack, "s"})
	}
	for _, c := range simCells {
		defs = append(defs, metricDef{"registry.allocs." + c.scheme + "." + c.attack, "count"})
	}
	// The traced run's own end-to-end figures: set against the untraced
	// runs' medians they give the tracing overhead.
	for _, m := range endToEnd {
		defs = append(defs, metricDef{"traced." + m.name, m.unit})
	}
	return defs
}()

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig, *outcome) error{
	"serve-router": func(rc runConfig, o *outcome) error { return runServe(rc, serveRouter, o) },
	"serve-attack": func(rc runConfig, o *outcome) error { return runServe(rc, serveAttack, o) },
	"sim-exact":    runSim,
}

func main() {
	var rc runConfig
	var trace int
	flag.StringVar(&rc.workload, "workload", "", "workload: serve-router, serve-attack or sim-exact")
	flag.Uint64Var(&rc.seed, "seed", 1, "workload seed; the same seed makes the same inputs")
	flag.IntVar(&rc.seconds, "seconds", 10, "nominal measured seconds; fixes the amount of work")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&rc.binDir, "bin", "", "directory holding the built memctld and memrouterd")
	flag.StringVar(&rc.work, "work", "", "scratch directory for address files, daemon logs and spans")
	flag.Parse()
	rc.trace = trace == 1
	run, ok := workloads[rc.workload]
	if !ok || rc.seconds < 1 || (trace != 0 && trace != 1) || rc.work == "" {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1, --trace 0|1 and -work\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(rc.work, 0o755); err != nil {
		fatal(err)
	}

	// Whatever ends the run, no daemon outlives it.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		killAll()
		os.Exit(1)
	}()

	h := fingerprint()
	out := &outcome{layers: make(map[string]float64)}
	err := run(rc, out)
	killAll()
	if err != nil {
		fatal(err)
	}
	if out.attempted == 0 {
		out.fail("no operation was attempted")
	}
	h.ProbeEndMs = speedProbe()

	diag := struct {
		Workload string   `json:"workload"`
		Seed     uint64   `json:"seed"`
		Host     host     `json:"host"`
		Notes    []string `json:"notes"`
		Failures []string `json:"failures"`
	}{rc.workload, rc.seed, h, out.notes, out.failures}
	b, _ := json.Marshal(diag) // plain strings and numbers always marshal
	fmt.Println(string(b))
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}

	defs, values := endToEnd, out.e2e
	if rc.trace {
		defs, values = perLayer, out.layers
		for k, v := range out.e2e {
			values["traced."+k] = v
		}
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   len(out.failures) == 0,
		Attempted: max(out.attempted, 1), // 0 already failed the run
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{finite(values[d.name]), d.unit}
	}
	if b, err = json.Marshal(res); err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	killAll()
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

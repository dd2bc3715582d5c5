// Command perfbench is the repository benchmark. It drives one workload
// from one process through the library's public functions and the
// qcongestd client, checks every answer, and prints one JSON result as
// the last line of standard output:
//
//	go run . --workload approx --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 is a separate run that times the calls into each layer's
// public functions from outside and prints the per-layer metrics, a
// self-time table that reconciles with the workload's p50, and the
// tracing overhead. README.md maps every metric to the end-to-end
// metric and workload it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced metrics every workload reports. The op
// each one is measured on differs per workload; README.md has the map.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"alloc_kb_per_op", "KB"},
	{"cpu_ms_per_op", "ms"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"side_p50_ms", "ms"},
}

// perLayer lists the traced metrics every workload reports.
var perLayer = []struct{ name, unit string }{
	{"graph.bfs_ms", "ms"},
	{"graph.dijkstra_ms", "ms"},
	{"graph.parse_binary_ms", "ms"},
	{"graph.parse_text_ms", "ms"},
	{"graph.digest_ms", "ms"},
	{"dist.build_ms", "ms"},
	{"dist.ecc_query_us", "us"},
	{"dist.builds_per_op", "count"},
	{"qdist.search_ms", "ms"},
	{"qdist.evals_per_op", "count"},
	{"svc.handler_us", "us"},
	{"svc.transport_us", "us"},
	{"svc.upload_ms", "ms"},
	{"store.append_ms", "ms"},
	{"store.snapshot_ms", "ms"},
	{"store.open_s", "s"},
	{"server.hit_us", "us"},
	{"server.hit_ratio", "ratio"},
	{"svc.shed", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"residual_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// run is what one workload hands back: its op counts, the failures it
// saw, and its metrics keyed by name.
type run struct {
	Attempted int
	Failed    int
	Failures  []string // first few failure descriptions, for stderr
	Values    map[string]float64
	Measured  map[string]float64 // every time metric as measured
	Converted map[string]float64 // every time metric in reference-host units, as reported
	Table     []selfRow          // traced runs: the reconciled self-time table
	TableNote string
}

// newRun returns an empty run.
func newRun() *run {
	return &run{Values: map[string]float64{}, Measured: map[string]float64{}, Converted: map[string]float64{}}
}

// report records a time metric both as measured and in reference-host
// units; the result takes the converted value.
func (r *run) report(name string, measured, converted float64) {
	r.Measured[name], r.Converted[name] = measured, converted
	r.Values[name] = converted
}

func (r *run) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// config is one invocation's arguments.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	WorkDir  string // scratch space for data dirs, inside the checkout
}

var workloads = map[string]func(config) (*run, error){
	"approx": runApprox,
	"serve":  runServe,
	"ingest": runIngest,
}

func main() {
	var cfg config
	var trace int
	var seconds int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: approx, serve or ingest")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 30, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead")
	flag.StringVar(&cfg.WorkDir, "workdir", ".bench_build/tmp", "directory for the runs' data dirs")
	flag.Parse()
	cfg.Seconds = float64(seconds)
	cfg.Trace = trace == 1
	fn, ok := workloads[cfg.Workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload approx|serve|ingest, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	printEnv(cfg)
	r, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		os.Exit(1)
	}
	if err := emit(cfg, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		os.Exit(1)
	}
}

// printEnv records the host and toolchain a result was measured on, as
// a stdout line ahead of the result.
func printEnv(cfg config) {
	host, _ := os.Hostname() // best effort: an empty host name is still a valid record
	cpu := ""
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "model name") {
				cpu = strings.TrimSpace(line[strings.Index(line, ":")+1:])
				break
			}
		}
	}
	env := map[string]any{
		"workload": cfg.Workload, "seed": cfg.Seed, "seconds": cfg.Seconds, "trace": cfg.Trace,
		"host": host, "cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
	raw, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Printf("env %s\n", raw)
}

// emit checks that the run produced every metric of its kind with a
// finite value, prints the self-time table of a traced run, and prints
// the result line.
func emit(cfg config, r *run) error {
	for _, f := range r.Failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed op: %s\n", cfg.Workload, f)
	}
	want := endToEnd
	if cfg.Trace {
		want = perLayer
	}
	out := result{
		Correct:   r.Failed == 0 && r.Attempted > 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   map[string]metric{},
	}
	var missing []string
	for _, m := range want {
		v, ok := r.Values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.name)
			continue
		}
		out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return errors.New("no value for " + strings.Join(missing, ", "))
	}
	if cfg.Trace {
		printTable(cfg.Workload, r)
	}
	for _, line := range []struct {
		name string
		m    map[string]float64
	}{{"measured", r.Measured}, {"converted", r.Converted}} {
		if len(line.m) > 0 {
			raw, _ := json.Marshal(line.m) // a map of finite floats always marshals
			fmt.Printf("%s %s\n", line.name, raw)
		}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// printTable prints a traced run's self-time table: per-op self time of
// each layer, which sums to the traced p50 by construction, with the
// root's row stated as the residual.
func printTable(workload string, r *run) {
	var total float64
	fmt.Printf("table %s: self time per op (ms)\n", workload)
	for _, row := range r.Table {
		fmt.Printf("table %-28s %10.4f\n", row.Name, row.SelfMs)
		total += row.SelfMs
	}
	fmt.Printf("table %-28s %10.4f\n", "= sum", total)
	if r.TableNote != "" {
		fmt.Printf("table %s\n", r.TableNote)
	}
}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

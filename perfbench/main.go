// Command perfbench is the repository benchmark. One process starts
// server.New on a loopback listener, loads a seeded synthetic dataset
// through internal/client, drives one of three workloads with at most
// two connections, and checks every answer against its own exact
// float64 oracle.
//
//	perfbench --workload exact-closed --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics (throughput, read
// latency, recall, success share, set-up time, heap growth). With
// --trace 1 it instead runs the per-layer ladder: it times calls into
// each layer's public entry points from outside (vec, topk, knn, pq,
// graph, mutate, ssam.Region, batcher, wire, server, client), runs a
// memory-copy roofline probe, replays the served load once untraced
// and once with every search force-traced, and prints one metric per
// layer plus the tracing overhead. Spans are kept in memory and
// written as JSON lines to --spans when the run ends.
//
// Every metric line is printed as "name value unit"; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. The process exits 1 when any answer is wrong.
// BENCHMARK.json at the repository root lists the workloads and the
// metric names, and perfbench/run.sh builds and runs this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // JSON-lines span file written by a traced run
	tiny     bool   // shrink the workload (self-test only)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed for the dataset, queries and operation schedule")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds of served load")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	fs.StringVar(&o.spans, "spans", "", "span output file for --trace 1 (default .bench_build/spans-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	o.trace = trace == 1
	if o.trace && o.spans == "" {
		o.spans = fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", o.workload, o.seed)
	}
	return runOptions(o, stdout, stderr)
}

// runOptions runs one invocation and prints its metrics, the result
// line last. It returns the process exit code.
func runOptions(o options, stdout, stderr io.Writer) int {
	res, err := execute(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, name := range res.order {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d wrong answers\n", res.wrong)
		return 1
	}
	return 0
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line. order keeps the print order of the
// human-readable metric lines.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order []string
	wrong int64
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// gitRev is the revision the binary was built from, read from the
// build's VCS stamp, which a checkout without .git lacks.
func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// provenance prints where the numbers came from.
func provenance(w io.Writer, o options) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "# git_rev=%s go=%s GOMAXPROCS=%d NumCPU=%d GOOS=%s GOARCH=%s\n",
		gitRev(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
}

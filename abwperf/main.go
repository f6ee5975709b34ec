// Command abwperf is the repository benchmark. It starts internal/server
// on a loopback listener, drives it over real HTTP with a seeded
// closed-loop generator, verifies every answer against the uncached
// reference (routing.FindPath + core.AvailableBandwidthContext on the
// same background), and prints one JSON result line.
//
// Usage (from the repository root):
//
//	bash abwperf/run.sh --workload query-hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 replays the
// workload's operations through an in-process handler and through the
// public functions of each layer and reports per-layer metrics instead.
// --manifest prints BENCHMARK.json, which is generated from the
// definitions in manifest.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the arguments, runs one benchmark pass and prints its
// result. The exit code is 0 whenever a result was printed; a wrong
// answer shows as "correct": false, not as an exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("abwperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest {
		if err := writeManifest(stdout); err != nil {
			fmt.Fprintln(stderr, "abwperf:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "abwperf: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *traceFlag == 1 {
		res, err = runTraced(w, *seed, dur, stderr)
	} else {
		res, err = runTimed(w, *seed, dur, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "abwperf:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "abwperf:", err)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

// set records a metric under its declared unit; names missing from
// the manifest are a programming error caught by the self-tests.
func (r *result) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// fail marks the run incorrect and says why on stderr.
func (r *result) fail(stderr io.Writer, format string, args ...interface{}) {
	r.Correct = false
	fmt.Fprintf(stderr, "abwperf: check failed: "+format+"\n", args...)
}

// print writes one human-readable line per metric, then the JSON
// result as the last line.
func (r *result) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-28s %14.6f %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

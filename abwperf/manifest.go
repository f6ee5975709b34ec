package main

import (
	"encoding/json"
	"io"
)

// metricDef declares one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd are the metrics a user of abwd sees, reported by --trace 0
// on every workload. On the query workloads the admit_* latencies come
// from the admission probe that closes each round of the timed phase.
var endToEnd = []metricDef{
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: bound(0.25)},
	{Name: "query_p90_ms", Unit: "ms", Better: "lower", Bound: bound(0.25)},
	{Name: "admit_p50_ms", Unit: "ms", Better: "lower", Bound: bound(0.25)},
	{Name: "admit_p90_ms", Unit: "ms", Better: "lower", Bound: bound(0.25)},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: bound(0.25)},
	{Name: "retained_heap_mb", Unit: "MB", Better: "lower", Bound: bound(0.25)},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: bound(0.25)},
}

// perLayer are the traced run's metrics (--trace 1). Times are mean µs
// per traced op unless the name says per call; a layer that does not
// run on a workload reports 0.
var perLayer = []metricDef{
	{Name: "server.wire_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "routing.find_path_us", Unit: "us", Better: "lower"},
	{Name: "routing.allocs_per_call", Unit: "count", Better: "lower"},
	{Name: "core.idle_us", Unit: "us", Better: "lower"},
	{Name: "core.feasible_us", Unit: "us", Better: "lower"},
	{Name: "core.avail_us", Unit: "us", Better: "lower"},
	{Name: "memo.lookup_us", Unit: "us", Better: "lower"},
	{Name: "memo.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "memo.delta_ratio", Unit: "ratio", Better: "higher"},
	{Name: "memo.miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "memo.evictions", Unit: "count", Better: "lower"},
	{Name: "memo.bytes_mb", Unit: "MB", Better: "lower"},
	{Name: "indepset.enumerate_us", Unit: "us", Better: "lower"},
	{Name: "indepset.sets_per_call", Unit: "count", Better: "lower"},
	{Name: "lp.cold_pivots_per_op", Unit: "count", Better: "lower"},
	{Name: "lp.warm_pivots_per_op", Unit: "count", Better: "lower"},
	{Name: "lp.warm_resolve_ratio", Unit: "ratio", Better: "higher"},
	{Name: "estimate.us", Unit: "us", Better: "lower"},
	{Name: "estimate.allocs_per_call", Unit: "count", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.op_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "obs.stage_sum_over_total", Unit: "ratio", Better: "higher"},
}

// runSeconds is the length of one timed phase in the manifest.
const runSeconds = 10

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "abwperf/run.sh"},
		Paths:      []string{"abwperf"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadDef{Name: w.name, Why: w.why})
	}
	return m
}

// writeManifest prints BENCHMARK.json.
func writeManifest(w io.Writer) error {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// unitOf returns the declared unit of a metric ("" if undeclared).
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

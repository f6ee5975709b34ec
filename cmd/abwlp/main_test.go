package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const spec = `{
  "nodes": [{"x":0,"y":0},{"x":100,"y":0},{"x":200,"y":0}],
  "query": {"src":0,"dst":2}
}`

func TestRunStdinStdout(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run(context.Background(), nil, strings.NewReader(spec), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	var ans map[string]interface{}
	if err := json.Unmarshal(out.Bytes(), &ans); err != nil {
		t.Fatalf("output not JSON: %v\n%s", err, out.String())
	}
	if ans["feasible"] != true {
		t.Errorf("answer = %v", ans)
	}
}

func TestRunFiles(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.json")
	outPath := filepath.Join(dir, "out.json")
	if err := os.WriteFile(in, []byte(spec), 0o600); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-i", in, "-o", outPath}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "bandwidthMbps") {
		t.Errorf("output file content: %s", data)
	}
}

func TestRunErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(context.Background(), nil, strings.NewReader("{not json"), &out, &errOut); code != 1 {
		t.Errorf("bad JSON exit = %d, want 1", code)
	}
	if code := run(context.Background(), []string{"-i", "/nonexistent/x.json"}, strings.NewReader(""), &out, &errOut); code != 1 {
		t.Errorf("missing input exit = %d, want 1", code)
	}
	if code := run(context.Background(), []string{"-bogus"}, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
	// Valid JSON, unsolvable query.
	bad := `{"nodes":[{"x":0,"y":0},{"x":1000,"y":0}],"query":{"src":0,"dst":1}}`
	if code := run(context.Background(), nil, strings.NewReader(bad), &out, &errOut); code != 1 {
		t.Errorf("unroutable query exit = %d, want 1", code)
	}
}

// TestCacheFlagImplications pins the CLI validation satellites:
// -cachebytes and -cachedir turn the cache on by themselves, and an
// explicitly empty -cachedir is a usage error.
func TestCacheFlagImplications(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run(context.Background(), []string{"-cachebytes", "1048576", "-cachestats"}, strings.NewReader(spec), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "cacheStats") {
		t.Errorf("-cachebytes alone did not enable the cache; answer: %s", out.String())
	}
	if !strings.Contains(errOut.String(), "cache:") {
		t.Errorf("-cachestats summary missing: %s", errOut.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run(context.Background(), []string{"-cachedir", ""}, strings.NewReader(spec), &out, &errOut); code != 2 {
		t.Errorf("empty -cachedir exit = %d, want 2 (usage error)", code)
	}
	if !strings.Contains(errOut.String(), "cachedir") {
		t.Errorf("usage error does not name the flag: %s", errOut.String())
	}
}

// TestCacheDirWarmsSecondRun pins the end-to-end warm restart through
// the CLI: two separate run() invocations (separate processes in real
// use) share families through -cachedir, so the second answers from
// disk without enumerating.
func TestCacheDirWarmsSecondRun(t *testing.T) {
	dir := t.TempDir()
	stats := func() map[string]interface{} {
		t.Helper()
		var out, errOut bytes.Buffer
		if code := run(context.Background(), []string{"-cachedir", dir}, strings.NewReader(spec), &out, &errOut); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errOut.String())
		}
		var ans struct {
			CacheStats map[string]interface{} `json:"cacheStats"`
		}
		if err := json.Unmarshal(out.Bytes(), &ans); err != nil {
			t.Fatalf("output not JSON: %v\n%s", err, out.String())
		}
		if ans.CacheStats == nil {
			t.Fatalf("-cachedir did not enable the cache; answer: %s", out.String())
		}
		return ans.CacheStats
	}
	cold := stats()
	if cold["diskMisses"] == float64(0) || cold["misses"] == float64(0) {
		t.Fatalf("cold run should enumerate and miss the disk: %v", cold)
	}
	warm := stats()
	if hits, ok := warm["diskHits"].(float64); !ok || hits == 0 {
		t.Errorf("second run never hit the spill: %v", warm)
	}
	if misses, ok := warm["misses"].(float64); !ok || misses != 0 {
		t.Errorf("second run re-enumerated: %v", warm)
	}
}

// TestTraceFlag pins the -trace contract: the flag adds a "trace" block
// with per-stage records, and the numeric answer is identical to an
// untraced run.
func TestTraceFlag(t *testing.T) {
	var plain, traced, errOut bytes.Buffer
	if code := run(context.Background(), nil, strings.NewReader(spec), &plain, &errOut); code != 0 {
		t.Fatalf("plain run: exit %d, stderr: %s", code, errOut.String())
	}
	if code := run(context.Background(), []string{"-trace"}, strings.NewReader(spec), &traced, &errOut); code != 0 {
		t.Fatalf("traced run: exit %d, stderr: %s", code, errOut.String())
	}

	var p, tr map[string]interface{}
	if err := json.Unmarshal(plain.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(traced.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if _, present := p["trace"]; present {
		t.Fatalf("untraced answer has a trace block: %v", p)
	}
	trace, ok := tr["trace"].(map[string]interface{})
	if !ok {
		t.Fatalf("traced answer missing trace block: %v", tr)
	}
	if trace["totalNs"].(float64) <= 0 || len(trace["stages"].([]interface{})) == 0 {
		t.Fatalf("trace block empty: %v", trace)
	}
	// The numeric answer is unchanged by tracing.
	if p["bandwidthMbps"] != tr["bandwidthMbps"] || p["feasible"] != tr["feasible"] {
		t.Fatalf("traced answer differs: %v vs %v", p, tr)
	}
}

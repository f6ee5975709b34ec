package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// opTrace renders n generated ops as the bytes the daemon would
// receive. Admissions are answered deterministically (every other one
// admitted, ids counting up) so churn cycles reach their tear-downs.
func opTrace(t *testing.T, w workload, seed int64, n int) []byte {
	dep, err := newDeployment(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pairs := pairSet(w, seed, dep.net)
	g := newGenerator(w, pairs, seed, streamClient)
	var buf bytes.Buffer
	id := numBackground
	for i := 0; i < n; i++ {
		o := g.next()
		buf.WriteString(o.method() + " " + o.path() + " ")
		buf.Write(o.body(false))
		buf.WriteByte('\n')
		if o.kind == opAdmit && i%2 == 0 {
			id++
			g.admitted(id)
		}
	}
	pr := newProbe(pairs, seed)
	for i := 0; i < 50; i++ {
		buf.Write(pr.next().body(false))
	}
	return buf.Bytes()
}

func TestOpSequenceDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := opTrace(t, w, 7, 400), opTrace(t, w, 7, 400)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced two different op sequences", w.name)
		}
		if bytes.Equal(a, opTrace(t, w, 8, 400)) {
			t.Errorf("%s: seeds 7 and 8 produced the same op sequence", w.name)
		}
		if w.churn && !bytes.Contains(a, []byte("DELETE /v1/flows/")) {
			t.Errorf("%s: no tear-downs in 400 ops", w.name)
		}
	}
}

func TestHotSetIsDistinctPairs(t *testing.T) {
	w, _ := workloadByName("query-hot")
	dep, err := newDeployment(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pairs := pairSet(w, 3, dep.net)
	seen := map[[2]int]bool{}
	for _, p := range pairs {
		if p[0] == p[1] || seen[p] {
			t.Fatalf("bad hot pair %v in %v", p, pairs)
		}
		seen[p] = true
	}
	if len(pairs) != w.hotPairs {
		t.Fatalf("%d hot pairs, want %d", len(pairs), w.hotPairs)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestManifestShape(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("%s: why must be one line of at most 200 characters (%d)", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name)
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", d.Name)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
	for _, d := range perLayer {
		check(d.Name)
		if d.Bound != nil {
			t.Errorf("%s: per-layer metrics take no bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: bad unit %q or better %q", d.Name, d.Unit, d.Better)
		}
	}
}

// TestManifestCommitted keeps BENCHMARK.json in step with manifest.go;
// regenerate with `go run . --manifest > ../BENCHMARK.json`.
func TestManifestCommitted(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeManifest(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, buf.Bytes()) {
		t.Fatal("BENCHMARK.json is stale: go run . --manifest > ../BENCHMARK.json")
	}
}

// TestSmoke runs every workload briefly, untraced and traced: every
// answer must verify and exactly the declared metrics must be printed.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, tr := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "1", "--seconds", "0.3", "--trace", tr}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.name, tr, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.name, tr, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace %s: correct=%v attempted=%d failed=%d: %s",
					w.name, tr, res.Correct, res.Attempted, res.Failed, errOut.String())
			}
			want := endToEnd
			if tr == "1" {
				want = perLayer
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace %s: metric %s missing or with unit %q", w.name, tr, d.Name, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: printed %d metrics, declared %d", w.name, tr, len(res.Metrics), len(want))
			}
			if tr == "0" && reflect.DeepEqual(res.Metrics["setup_s"], metric{}) {
				t.Errorf("%s: setup_s is zero", w.name)
			}
		}
	}
}

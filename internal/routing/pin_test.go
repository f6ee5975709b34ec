package routing_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"abw/internal/conflict"
	"abw/internal/core"
	"abw/internal/experiments"
	"abw/internal/graph"
	"abw/internal/netjson"
	"abw/internal/routing"
	"abw/internal/server"
	"abw/internal/topology"
)

// Known-answer routing pins on the paper's Sec. 5.2 deployment
// (experiments.Fig2Setup) with its first four requests admitted. The
// route-vs-route tests compare Dijkstra with brute force or with
// itself, so they cannot see a change in which of several equal-weight
// paths wins; these digests can. Each is a sha256 over the node
// sequences (and, for Yen, the weights) in a fixed order, recorded once
// from a trusted tree. Update a constant only with a reason that
// explains why the paper's routes changed. The package is external
// because experiments and server import routing.

const (
	pinFindPath = "84316b6de5cf4908c0918d4efcdc9a958e376ea1c0220860ea685f06dfc3c0f5"
	pinKShort   = "7ca4c6e0871af6707b6b35afbe778cd5543a4da5629922a3b40987fe8d883f3b"
	pinServer   = "0dda9bdea53d3475eb4c0ebceb3e519bf9cd5b9a8ce4f7e594fe381877280610"
)

// pinBackground is the Fig. 2 deployment with its first four requests
// admitted in order under average-e2eD, and the idle ratios they leave.
func pinBackground(t testing.TB) (*topology.Network, *conflict.Physical, []routing.Request, []float64) {
	t.Helper()
	net, m, fig2, err := experiments.Fig2Setup()
	if err != nil {
		t.Fatal(err)
	}
	// Copied field by field: abwlint type-checks this package against a
	// test build of routing that experiments' Request is not from.
	reqs := make([]routing.Request, 0, 4)
	for _, r := range fig2[:4] {
		reqs = append(reqs, routing.Request{Src: r.Src, Dst: r.Dst, Demand: r.Demand})
	}
	decs, err := routing.SequentialAdmissionContext(context.Background(), net, m, routing.MetricAvgE2ED, reqs, routing.AdmissionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var admitted []core.Flow
	for _, d := range decs {
		if !d.Admitted {
			t.Fatalf("background request %d->%d not admitted: %s", d.Request.Src, d.Request.Dst, d.Reason)
		}
		admitted = append(admitted, core.Flow{Path: d.Path, Demand: d.Request.Demand})
	}
	idle, err := routing.BackgroundIdlenessContext(context.Background(), net, m, admitted, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return net, m, reqs, idle
}

// pinPairs is a fixed sample of 20 distinct ordered pairs.
func pinPairs(n int) [][2]topology.NodeID {
	rng := rand.New(rand.NewSource(15))
	seen := map[[2]topology.NodeID]bool{}
	var out [][2]topology.NodeID
	for len(out) < 20 {
		p := [2]topology.NodeID{topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n))}
		if p[0] == p[1] || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

func writeNodes(t *testing.T, h hash.Hash, net *topology.Network, path topology.Path) {
	t.Helper()
	nodes, err := net.PathNodes(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		fmt.Fprintf(h, " %d", n)
	}
}

func checkPin(t *testing.T, label string, h hash.Hash, want string) {
	t.Helper()
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("%s: digest %s, want %s", label, got, want)
	}
}

// TestPinnedFindPath pins FindPath's node sequence for every ordered
// pair under all three metrics.
func TestPinnedFindPath(t *testing.T) {
	net, m, _, idle := pinBackground(t)
	h := sha256.New()
	for _, metric := range routing.AllMetrics() {
		for s := 0; s < net.NumNodes(); s++ {
			for d := 0; d < net.NumNodes(); d++ {
				if s == d {
					continue
				}
				fmt.Fprintf(h, "%v %d->%d:", metric, s, d)
				path, err := routing.FindPath(net, m, metric, idle, topology.NodeID(s), topology.NodeID(d))
				switch {
				case errors.Is(err, graph.ErrNoPath):
					h.Write([]byte(" none"))
				case err != nil:
					t.Fatal(err)
				default:
					writeNodes(t, h, net, path)
				}
				h.Write([]byte{'\n'})
			}
		}
	}
	checkPin(t, "FindPath", h, pinFindPath)
}

// TestPinnedKShortestPaths pins Yen's four shortest e2eTD paths, with
// their weights, for the sample pairs.
func TestPinnedKShortestPaths(t *testing.T) {
	net, m, _, _ := pinBackground(t)
	w, err := routing.Weight(m, routing.MetricE2ETD, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, p := range pinPairs(net.NumNodes()) {
		fmt.Fprintf(h, "%d->%d\n", p[0], p[1])
		paths, err := graph.KShortestPaths(net, p[0], p[1], w, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, rp := range paths {
			h.Write([]byte(strconv.FormatFloat(rp.Weight, 'g', -1, 64) + ":"))
			writeNodes(t, h, net, rp.Path)
			h.Write([]byte{'\n'})
		}
	}
	checkPin(t, "KShortestPaths", h, pinKShort)
}

// TestPinnedServerRoute pins the daemon's default-metric route for the
// sample pairs after it admitted the same four requests over HTTP.
func TestPinnedServerRoute(t *testing.T) {
	net, _, reqs, _ := pinBackground(t)
	h := server.New().Handler()
	serve := func(method, path string, body interface{}) *httptest.ResponseRecorder {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(b)))
		return rec
	}
	var spec struct {
		Nodes []netjson.NodeSpec `json:"nodes"`
	}
	for _, n := range net.Nodes() {
		spec.Nodes = append(spec.Nodes, netjson.NodeSpec{X: n.Pos.X, Y: n.Pos.Y})
	}
	if rec := serve(http.MethodPut, "/v1/network", spec); rec.Code != http.StatusOK {
		t.Fatalf("PUT /v1/network: %d %s", rec.Code, rec.Body.Bytes())
	}
	for _, rq := range reqs {
		body := map[string]interface{}{"src": rq.Src, "dst": rq.Dst, "demandMbps": rq.Demand}
		if rec := serve(http.MethodPost, "/v1/flows", body); rec.Code != http.StatusCreated {
			t.Fatalf("admitting %d->%d: %d %s", rq.Src, rq.Dst, rec.Code, rec.Body.Bytes())
		}
	}
	d := sha256.New()
	for _, p := range pinPairs(net.NumNodes()) {
		rec := serve(http.MethodPost, "/v1/query", map[string]interface{}{"src": p[0], "dst": p[1]})
		var resp struct {
			PathNodes []int `json:"pathNodes"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("query %d->%d: %v", p[0], p[1], err)
		}
		fmt.Fprintf(d, "%d->%d %d: %v\n", p[0], p[1], rec.Code, resp.PathNodes)
	}
	checkPin(t, "server route", d, pinServer)
}

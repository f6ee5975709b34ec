package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"abw/internal/experiments"
	"abw/internal/netjson"
)

// BenchmarkServerWarmQuery is the warm controller's query in process:
// the Sec. 5.2 deployment (experiments.Fig2Setup) with its first four
// requests admitted, the cache on, and POST /v1/query cycling over 24
// seeded routable pairs through Handler().ServeHTTP. Every pair is
// asked once before timing, so the loop measures the warm path — view
// fill, family memo, warm LP state all in place — with allocs/op.
func BenchmarkServerWarmQuery(b *testing.B) {
	net, _, reqs, err := experiments.Fig2Setup()
	if err != nil {
		b.Fatal(err)
	}
	srv := New()
	srv.SetCacheBytes(0)
	h := srv.Handler()
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	var spec struct {
		Nodes []netjson.NodeSpec `json:"nodes"`
	}
	for _, n := range net.Nodes() {
		spec.Nodes = append(spec.Nodes, netjson.NodeSpec{X: n.Pos.X, Y: n.Pos.Y})
	}
	body, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	if rec := serve(http.MethodPut, "/v1/network", body); rec.Code != http.StatusOK {
		b.Fatalf("PUT /v1/network: %d %s", rec.Code, rec.Body.Bytes())
	}
	for _, rq := range reqs[:4] {
		flow := fmt.Sprintf(`{"src":%d,"dst":%d,"demandMbps":%g}`, rq.Src, rq.Dst, rq.Demand)
		if rec := serve(http.MethodPost, "/v1/flows", []byte(flow)); rec.Code != http.StatusCreated {
			b.Fatalf("admitting %d->%d: %d %s", rq.Src, rq.Dst, rec.Code, rec.Body.Bytes())
		}
	}
	rng := rand.New(rand.NewSource(24))
	var queries [][]byte
	for len(queries) < 24 {
		src, dst := rng.Intn(net.NumNodes()), rng.Intn(net.NumNodes())
		if src == dst {
			continue
		}
		q := []byte(fmt.Sprintf(`{"src":%d,"dst":%d}`, src, dst))
		if rec := serve(http.MethodPost, "/v1/query", q); rec.Code == http.StatusOK {
			queries = append(queries, q)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(http.MethodPost, "/v1/query", queries[i%len(queries)]); rec.Code != http.StatusOK {
			b.Fatalf("query %s: %d %s", queries[i%len(queries)], rec.Code, rec.Body.Bytes())
		}
	}
}

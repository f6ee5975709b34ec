package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rawDo sends one request and returns the status and the exact body.
func rawDo(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// liveFlow is an admission request a fresh server replays to hold the
// same flow set.
type liveFlow struct {
	src, dst int
	demand   float64
}

func (f liveFlow) body() string {
	return fmt.Sprintf(`{"src":%d,"dst":%d,"demandMbps":%g}`, f.src, f.dst, f.demand)
}

// admitFlow admits f and returns the flow record exactly as the admission
// response encoded it.
func admitFlow(t *testing.T, url string, f liveFlow) (int, json.RawMessage) {
	t.Helper()
	code, body := rawDo(t, http.MethodPost, url+"/v1/flows", f.body())
	if code != http.StatusCreated {
		t.Fatalf("admit %+v: %d %s", f, code, body)
	}
	var resp struct {
		Flow json.RawMessage `json:"flow"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	var rec struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(resp.Flow, &rec); err != nil {
		t.Fatal(err)
	}
	return rec.ID, resp.Flow
}

// viewProbes are the requests that read the background view: routed and
// explicit-path queries, an admission check, and the schedule.
var viewProbes = []struct{ method, path, body string }{
	{http.MethodPost, "/v1/query", `{"src":0,"dst":4}`},
	{http.MethodPost, "/v1/query", `{"src":4,"dst":1,"metric":"hop count"}`},
	{http.MethodPost, "/v1/query", `{"path":[1,2,3]}`},
	{http.MethodPost, "/v1/query", `{"src":0,"dst":3,"demandMbps":0.5}`},
	{http.MethodGet, "/v1/schedule", ""},
}

// probeAnswers runs every view probe and returns the bodies.
func probeAnswers(t *testing.T, url string) []string {
	t.Helper()
	out := make([]string, 0, len(viewProbes))
	for _, p := range viewProbes {
		code, body := rawDo(t, p.method, url+p.path, p.body)
		if code != http.StatusOK {
			t.Fatalf("%s %s %s: %d %s", p.method, p.path, p.body, code, body)
		}
		out = append(out, body)
	}
	return out
}

// freshAnswers installs the chain on a new uncached server, admits flows
// in order, and returns its probe answers: the reference a server with
// the same flow set must reproduce byte for byte.
func freshAnswers(t *testing.T, flows []liveFlow) []string {
	t.Helper()
	ts := newTestServer(t)
	install(t, ts)
	for _, f := range flows {
		admitFlow(t, ts.URL, f)
	}
	return probeAnswers(t, ts.URL)
}

// sameAnswers compares probe answers byte for byte, except that a cached
// server's bandwidthMbps comes from a warm-started LP and may differ from
// a cold solve by pivot round-off (1e-7, as TestCachedServerMatchesUncached
// allows); everything else, the estimates included, must match exactly.
func sameAnswers(t *testing.T, step string, cached bool, got, want []string) {
	t.Helper()
	for i := range want {
		if got[i] == want[i] {
			continue
		}
		if cached {
			var g, w map[string]interface{}
			if json.Unmarshal([]byte(got[i]), &g) == nil && json.Unmarshal([]byte(want[i]), &w) == nil {
				gb, gok := g["bandwidthMbps"].(float64)
				wb, wok := w["bandwidthMbps"].(float64)
				delete(g, "bandwidthMbps")
				delete(w, "bandwidthMbps")
				if gok && wok && math.Abs(gb-wb) <= 1e-7 && reflect.DeepEqual(g, w) {
					continue
				}
			}
		}
		t.Fatalf("%s: %s %s answered\n%s\nwant (fresh uncached server)\n%s",
			step, viewProbes[i].path, viewProbes[i].body, got[i], want[i])
	}
}

// TestFlowListingIDOrderAfterDeletes pins GET /v1/flows and
// GET /v1/fairshare to the live flows in id order after most admitted
// flows are gone: the listing is exactly the survivors' admission
// records, in ascending id order.
func TestFlowListingIDOrderAfterDeletes(t *testing.T) {
	ts := newTestServer(t)
	install(t, ts)
	pairs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}, {2, 4}, {1, 3}, {4, 3}, {3, 1}, {2, 0}, {1, 0}, {4, 2}}
	records := map[int]json.RawMessage{}
	var ids []int
	for _, p := range pairs {
		id, rec := admitFlow(t, ts.URL, liveFlow{src: p[0], dst: p[1], demand: 0.1})
		records[id] = rec
		ids = append(ids, id)
	}
	keep := map[int]bool{ids[2]: true, ids[6]: true, ids[7]: true, ids[11]: true}
	// Delete newest first, so deletion order differs from id order.
	for i := len(ids) - 1; i >= 0; i-- {
		if keep[ids[i]] {
			continue
		}
		if code, body := rawDo(t, http.MethodDelete, fmt.Sprintf("%s/v1/flows/%d", ts.URL, ids[i]), ""); code != http.StatusOK {
			t.Fatalf("delete %d: %d %s", ids[i], code, body)
		}
	}

	var want []string
	var wantIDs []int
	for _, id := range ids {
		if keep[id] {
			want = append(want, string(records[id]))
			wantIDs = append(wantIDs, id)
		}
	}
	code, body := rawDo(t, http.MethodGet, ts.URL+"/v1/flows", "")
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, body)
	}
	if w := "[" + strings.Join(want, ",") + "]\n"; body != w {
		t.Fatalf("flow listing\n%s\nwant\n%s", body, w)
	}

	code, list := doJSONArray(t, http.MethodGet, ts.URL+"/v1/fairshare")
	if code != http.StatusOK || len(list) != len(wantIDs) {
		t.Fatalf("fairshare: %d %v", code, list)
	}
	for i, e := range list {
		if int(e["flow"].(float64)) != wantIDs[i] || e["demandMbps"].(float64) != 0.1 {
			t.Fatalf("fairshare entry %d = %v, want flow %d", i, e, wantIDs[i])
		}
	}

	// Emptied: both listings are empty arrays, not null.
	for _, id := range wantIDs {
		rawDo(t, http.MethodDelete, fmt.Sprintf("%s/v1/flows/%d", ts.URL, id), "")
	}
	for _, path := range []string{"/v1/flows", "/v1/fairshare"} {
		if code, body := rawDo(t, http.MethodGet, ts.URL+path, ""); code != http.StatusOK || body != "[]\n" {
			t.Fatalf("empty %s: %d %q", path, code, body)
		}
	}
}

// TestBackgroundViewFilledOncePerFlowSet pins the view's lifetime: any
// number of requests on an unchanged background fill it once, and each
// write — admit, DELETE, PUT — forces exactly one re-fill whose answers
// equal a fresh uncached server's holding the same flows.
func TestBackgroundViewFilledOncePerFlowSet(t *testing.T) {
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			srv := New()
			if cached {
				srv.SetCacheBytes(0)
			}
			var fills atomic.Int64
			srv.fillHook = func(context.Context) { fills.Add(1) }
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			install(t, ts)

			var live []liveFlow
			check := func(step string) {
				t.Helper()
				before := fills.Load()
				got := probeAnswers(t, ts.URL)
				got2 := probeAnswers(t, ts.URL)
				if n := fills.Load() - before; n != 1 {
					t.Fatalf("%s: %d view fills for %d requests on one flow set, want 1",
						step, n, 2*len(viewProbes))
				}
				sameAnswers(t, step, cached, got, got2)
				sameAnswers(t, step, cached, got, freshAnswers(t, live))
			}

			check("empty background")
			for _, f := range []liveFlow{{0, 2, 1}, {1, 4, 0.5}, {3, 4, 0.25}} {
				admitFlow(t, ts.URL, f)
				live = append(live, f)
				check("after admit " + f.body())
			}
			if code, body := rawDo(t, http.MethodDelete, ts.URL+"/v1/flows/2", ""); code != http.StatusOK {
				t.Fatalf("delete: %d %s", code, body)
			}
			live = append(live[:1], live[2:]...)
			check("after delete")

			// A view hit still records the schedule stage, as a hit.
			before := fills.Load()
			code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/query", `{"src":0,"dst":4,"trace":true}`)
			if code != http.StatusOK {
				t.Fatalf("traced query: %d %v", code, body)
			}
			if fills.Load() != before {
				t.Fatal("traced query re-filled an unchanged view")
			}
			var sched map[string]interface{}
			for _, st := range body["trace"].(map[string]interface{})["stages"].([]interface{}) {
				if rec := st.(map[string]interface{}); rec["stage"] == "schedule" {
					sched = rec
				}
			}
			if sched == nil {
				t.Fatalf("trace has no schedule stage: %v", body["trace"])
			}
			outcomes, _ := sched["cache"].(map[string]interface{})
			if outcomes["hit"] == nil || outcomes["miss"] != nil {
				t.Fatalf("schedule stage outcomes = %v, want hits only", outcomes)
			}

			if code, body := rawDo(t, http.MethodPut, ts.URL+"/v1/network", chainNetworkBody); code != http.StatusOK {
				t.Fatalf("reinstall: %d %s", code, body)
			}
			live = nil
			check("after network replace")
		})
	}
}

// TestCancelledViewFillStoresNothing pins the failure rule: a fill
// reaped by the query deadline answers 504 and leaves the view empty,
// and the next request fills it and answers like a fresh server.
func TestCancelledViewFillStoresNothing(t *testing.T) {
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			srv := New()
			if cached {
				srv.SetCacheBytes(0)
			}
			srv.SetQueryTimeout(200 * time.Millisecond)
			var hold atomic.Bool
			srv.fillHook = func(ctx context.Context) {
				if hold.Load() {
					<-ctx.Done() // hang until the deadline reaps the fill
				}
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			install(t, ts)
			// The admitted flow set is new to the session memo too, so the
			// held fill has real work left to cancel.
			live := []liveFlow{{0, 2, 1}}
			admitFlow(t, ts.URL, live[0])

			hold.Store(true)
			code, body := rawDo(t, http.MethodPost, ts.URL+"/v1/query", `{"src":0,"dst":4}`)
			if code != http.StatusGatewayTimeout {
				t.Fatalf("held fill answered %d (%s), want 504", code, body)
			}
			srv.mu.Lock()
			view := srv.view
			srv.mu.Unlock()
			if view == nil {
				t.Fatal("no current view after the cancelled fill")
			}
			if view.derived.Load() != nil {
				t.Fatal("cancelled fill stored its result")
			}

			hold.Store(false)
			sameAnswers(t, "after cancelled fill", cached, probeAnswers(t, ts.URL), freshAnswers(t, live))
			if view.derived.Load() == nil {
				t.Fatal("successful fill stored nothing")
			}
		})
	}
}

// TestConcurrentQueriesDuringWrites runs queries concurrently with
// admissions and deletions (meaningful under -race): every query
// answers, and once writes quiesce the server answers exactly like a
// fresh one holding the surviving flows.
func TestConcurrentQueriesDuringWrites(t *testing.T) {
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			srv := New()
			if cached {
				srv.SetCacheBytes(0)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			install(t, ts)

			const queriers = 3
			stop := make(chan struct{})
			var wg sync.WaitGroup
			errs := make(chan string, queriers) // each querier sends at most once
			for q := 0; q < queriers; q++ {
				wg.Add(1)
				go func(q int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						p := viewProbes[(q+i)%len(viewProbes)]
						req, err := http.NewRequest(p.method, ts.URL+p.path, bytes.NewBufferString(p.body))
						if err != nil {
							errs <- err.Error()
							return
						}
						resp, err := http.DefaultClient.Do(req)
						if err != nil {
							errs <- err.Error()
							return
						}
						b, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							errs <- fmt.Sprintf("%s %s: %d %s", p.path, p.body, resp.StatusCode, b)
							return
						}
					}
				}(q)
			}

			var ids []int
			for i, f := range []liveFlow{{0, 1, 0.3}, {1, 3, 0.2}, {2, 4, 0.3}, {4, 0, 0.1}, {3, 2, 0.2}, {0, 3, 0.1}, {1, 2, 0.2}} {
				id, _ := admitFlow(t, ts.URL, f)
				ids = append(ids, id)
				if i%2 == 1 { // tear every second flow's predecessor down
					if code, body := rawDo(t, http.MethodDelete, fmt.Sprintf("%s/v1/flows/%d", ts.URL, ids[i-1]), ""); code != http.StatusOK {
						t.Fatalf("delete: %d %s", code, body)
					}
				}
			}
			close(stop)
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatalf("concurrent query failed: %s", e)
			}

			_, list := doJSONArray(t, http.MethodGet, ts.URL+"/v1/flows")
			var live []liveFlow
			for _, f := range list {
				live = append(live, liveFlow{int(f["src"].(float64)), int(f["dst"].(float64)), f["demandMbps"].(float64)})
			}
			if len(live) != 4 {
				t.Fatalf("survivors = %v, want 4 flows", live)
			}
			sameAnswers(t, "after concurrent writes", cached, probeAnswers(t, ts.URL), freshAnswers(t, live))
		})
	}
}

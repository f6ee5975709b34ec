package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"abw/internal/core"
)

// TestSessionBudgetUnderChurn drives a cached server with a small
// -cachebytes budget through 240 distinct flow sets (admit, tear down
// the oldest past three live flows, query) next to an uncached one.
// After every step GET /v1/stats shows the session's charged bytes
// within the configured budget, the budget evicts, and every decision
// and reported bandwidth matches the uncached server's within the warm
// LP tolerance TestCachedServerMatchesUncached uses.
func TestSessionBudgetUnderChurn(t *testing.T) {
	const budget = 24 << 10
	plain := newTestServer(t)
	install(t, plain)
	srv := New()
	srv.SetCacheBytes(budget)
	cached := httptest.NewServer(srv.Handler())
	t.Cleanup(cached.Close)
	install(t, cached)

	session := func() core.SessionStats {
		t.Helper()
		code, body := rawDo(t, http.MethodGet, cached.URL+"/v1/stats", "")
		if code != http.StatusOK {
			t.Fatalf("stats: %d %s", code, body)
		}
		var out struct {
			Session core.SessionStats `json:"session"`
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatal(err)
		}
		return out.Session
	}
	same := func(what string, p, c float64) {
		t.Helper()
		if math.Abs(p-c) > 1e-7 {
			t.Fatalf("%s: %.12g plain, %.12g cached", what, p, c)
		}
	}

	pairs := [][2]int{{0, 2}, {1, 3}, {2, 4}, {0, 1}, {3, 4}, {1, 2}, {0, 3}}
	var live []int
	for step := 0; step < 240; step++ {
		pr := pairs[step%len(pairs)]
		admit := fmt.Sprintf(`{"src":%d,"dst":%d,"demandMbps":%g}`, pr[0], pr[1], 0.05+0.01*float64(step%23))
		codeP, bodyP := doJSON(t, http.MethodPost, plain.URL+"/v1/flows", admit)
		codeC, bodyC := doJSON(t, http.MethodPost, cached.URL+"/v1/flows", admit)
		if codeP != codeC || bodyP["admitted"] != bodyC["admitted"] {
			t.Fatalf("step %d: admit %d %v plain, %d %v cached", step, codeP, bodyP, codeC, bodyC)
		}
		same(fmt.Sprintf("step %d available", step), bodyP["availableMbps"].(float64), bodyC["availableMbps"].(float64))
		if bodyC["admitted"] == true {
			live = append(live, int(bodyC["flow"].(map[string]interface{})["id"].(float64)))
		}
		if len(live) > 3 {
			url := fmt.Sprintf("/v1/flows/%d", live[0])
			live = live[1:]
			if codeP, codeC := rawCode(t, plain.URL+url), rawCode(t, cached.URL+url); codeP != codeC {
				t.Fatalf("step %d: delete %d plain, %d cached", step, codeP, codeC)
			}
		}
		q := pairs[(step+3)%len(pairs)]
		query := fmt.Sprintf(`{"src":%d,"dst":%d}`, q[0], q[1])
		_, qP := doJSON(t, http.MethodPost, plain.URL+"/v1/query", query)
		_, qC := doJSON(t, http.MethodPost, cached.URL+"/v1/query", query)
		same(fmt.Sprintf("step %d query", step), qP["bandwidthMbps"].(float64), qC["bandwidthMbps"].(float64))

		if st := session(); st.MaxBytes != budget || st.Bytes > st.MaxBytes {
			t.Fatalf("step %d: session %+v over the %d budget", step, st, budget)
		}
	}
	if st := session(); st.Evictions == 0 || st.Entries == 0 {
		t.Fatalf("budget never evicted or retained nothing: %+v", st)
	}
}

// rawCode sends a DELETE and returns its status.
func rawCode(t *testing.T, url string) int {
	t.Helper()
	code, _ := rawDo(t, http.MethodDelete, url, "")
	return code
}

// TestSessionGaugesMirrorStats pins the /metrics side of the session
// block: each abw_session_* gauge equals the /v1/stats session field
// it mirrors.
func TestSessionGaugesMirrorStats(t *testing.T) {
	const budget = 24 << 10
	s, ts, _ := newObsServer(t)
	s.SetCacheBytes(budget)
	install(t, ts)
	for i, req := range []string{`{"src":0,"dst":4,"demandMbps":0.5}`, `{"src":1,"dst":3,"demandMbps":0.5}`} {
		if code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/flows", req); code != http.StatusCreated {
			t.Fatalf("admit %d: %d %v", i, code, body)
		}
	}
	_, stats := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", "")
	session := stats["session"].(map[string]interface{})
	exp := scrape(t, ts.URL)
	for gauge, field := range map[string]string{
		"abw_session_entries":   "entries",
		"abw_session_bytes":     "bytes",
		"abw_session_max_bytes": "maxBytes",
		"abw_session_evictions": "evictions",
	} {
		if v, ok := metricValue(t, exp, gauge); !ok || v != session[field].(float64) {
			t.Fatalf("%s = %v (ok=%v), /v1/stats session.%s = %v", gauge, v, ok, field, session[field])
		}
	}
	if session["maxBytes"].(float64) != budget || session["entries"].(float64) == 0 {
		t.Fatalf("session block %v, want maxBytes %d and some entries", session, budget)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"abw/internal/memo"
)

const (
	// setupRepeats is how many times set-up runs; setup_s is the median.
	setupRepeats = 9
	// tailQuantile is the reported tail: the highest percentile that
	// leaves ten samples beyond it on every workload (admit-churn sends
	// about 750 admissions, the query workloads' probe 500).
	tailQuantile = 0.90
	// minTailSamples is the number of samples the tail must leave beyond it.
	minTailSamples = 10
	// rounds splits the timed phase so that time-correlated host noise
	// lands on queries and on the admission probe alike (statistics are
	// pooled over the rounds). The query workloads close each round
	// with probeAdmissions admit + tear-down pairs: a fixed count, not a
	// time share, because every admission the daemon has ever made
	// slows each later request (the flow-table snapshot walks every id
	// ever issued), so a count that followed host speed would feed host
	// noise back into every metric.
	rounds          = 5
	probeAdmissions = 100
	// determinismCycles is the admit-churn prefix replayed twice to
	// check that the cache counters repeat exactly.
	determinismCycles = 40
	// verifyWorkers bounds the verification goroutines.
	verifyWorkers = 2
)

// runTimed is the untraced run: set-up (repeated), the timed
// closed-loop phase in rounds (with the query workloads' admission
// probe), then verification and the self-checks. It reports the
// end-to-end metrics.
func runTimed(w workload, seed int64, dur time.Duration, stderr io.Writer) (*result, error) {
	ctx := context.Background()
	dep, err := newDeployment(ctx)
	if err != nil {
		return nil, err
	}
	pairs := pairSet(w, seed, dep.net)
	warm := warmPairs(w, pairs, seed)
	res := newResult()
	all := answerStore{}

	var d *daemon
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.close()
		}
		var el time.Duration
		var c *clientRun
		d, el, c, err = setUp(w, dep, warm)
		if err != nil {
			return nil, err
		}
		setups = append(setups, el.Seconds())
		all.merge(c.answers)
		res.Attempted += c.attempted
	}
	defer d.close()

	// Timed phase: closed-loop clients; on the query workloads each
	// round ends with the admission probe, one client admitting and
	// tearing down again, so the queries' background is unchanged.
	runs := make([]*clientRun, w.clients)
	for i := range runs {
		runs[i] = newClientRun(d, dep, newGenerator(w, pairs, seed, streamClient+i), dep.background)
	}
	prober := newClientRun(d, dep, nil, dep.background)
	pg := newProbe(pairs, seed)
	probes := probeAdmissions
	if w.churn {
		probes = 0
	}
	var elapsed time.Duration
	var roundRates []string
	for r := 0; r < rounds; r++ {
		var ops0 int64
		for _, c := range runs {
			ops0 += c.attempted
		}
		roundDur := dur / rounds
		budget := int64(float64(w.opsPerSecond) * dur.Seconds() / rounds)
		if budget > 0 {
			roundDur *= 2
		}
		el := runClients(runs, roundDur, budget)
		elapsed += el
		var ops1 int64
		for _, c := range runs {
			ops1 += c.attempted
		}
		roundRates = append(roundRates, fmt.Sprintf("%.0f", float64(ops1-ops0)/el.Seconds()))
		for i := 0; i < probes; i++ {
			if id, ok := prober.exec(pg.next()); ok {
				prober.exec(op{kind: opDelete, id: id})
			}
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	var lat latencies
	var ops int64
	for _, c := range runs {
		ops += c.attempted - c.failed
	}
	for _, c := range append(runs, prober) {
		lat.merge(c.lat)
		all.merge(c.answers)
		res.Attempted += c.attempted
		res.Failed += c.failed
	}
	if w.churn {
		if err := scrapeStats(d, stderr); err != nil {
			res.fail(stderr, "GET /v1/stats: %v", err)
		}
	}

	wrong := newVerifier(dep).check(ctx, all, verifyWorkers, stderr)
	res.Failed += wrong
	if w.churn {
		if err := checkDeterminism(w, dep, pairs, seed); err != nil {
			res.fail(stderr, "%v", err)
		}
	}
	for _, l := range [][]int64{lat.query, lat.admit} {
		if float64(len(l))*(1-tailQuantile) < minTailSamples {
			fmt.Fprintf(stderr, "abwperf: warning: %d samples leave fewer than %d beyond p%.0f\n", len(l), minTailSamples, 100*tailQuantile)
		}
	}
	res.set("setup_s", median(setups))
	res.set("query_p50_ms", quantileMs(lat.query, 0.50))
	res.set("query_p90_ms", quantileMs(lat.query, tailQuantile))
	res.set("admit_p50_ms", quantileMs(lat.admit, 0.50))
	res.set("admit_p90_ms", quantileMs(lat.admit, tailQuantile))
	res.set("ops_per_s", float64(ops)/elapsed.Seconds())
	res.set("retained_heap_mb", float64(ms.HeapAlloc)/1e6)
	fmt.Fprintf(stderr, "abwperf: %s seed %d: %d queries (max %.1f ms), %d admissions (max %.1f ms), %d tear-downs in %.3fs; %d answers wrong; %.0f MB from the OS\n",
		w.name, seed, len(lat.query), quantileMs(lat.query, 1), len(lat.admit), quantileMs(lat.admit, 1), len(lat.delete), elapsed.Seconds(), wrong, float64(ms.Sys)/1e6)
	fmt.Fprintf(stderr, "abwperf: ops/s per round %v\n", roundRates)
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

// runClients runs the closed-loop clients for dur, or until each has
// sent budget more ops when budget > 0, and returns the time they took.
func runClients(runs []*clientRun, dur time.Duration, budget int64) time.Duration {
	t0 := time.Now()
	deadline := t0.Add(dur)
	var wg sync.WaitGroup
	for _, c := range runs {
		wg.Add(1)
		go func(c *clientRun) {
			defer wg.Done()
			stop := c.attempted + budget
			for time.Now().Before(deadline) && (budget == 0 || c.attempted < stop) {
				c.step()
			}
		}(c)
	}
	wg.Wait()
	return time.Since(t0)
}

// statsBody is the GET /v1/stats answer.
type statsBody struct {
	CacheEnabled bool       `json:"cacheEnabled"`
	Cache        memo.Stats `json:"cache"`
}

func getStats(d *daemon) (memo.Stats, error) {
	var buf bytes.Buffer
	status, err := d.do("GET", "/v1/stats", nil, &buf)
	if err != nil {
		return memo.Stats{}, err
	}
	if status != http.StatusOK {
		return memo.Stats{}, fmt.Errorf("status %d: %s", status, buf.Bytes())
	}
	var s statsBody
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		return memo.Stats{}, err
	}
	return s.Cache, nil
}

// scrapeStats logs the daemon's cache counters after the timed phase.
func scrapeStats(d *daemon, stderr io.Writer) error {
	s, err := getStats(d)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "abwperf: cache lookups %d hits %d delta %d misses %d evictions %d bytes %d; pivots cold %d warm %d (%d re-solves)\n",
		s.Lookups, s.Hits, s.DeltaHits, s.Misses, s.Evictions, s.Bytes, s.ColdPivots, s.WarmPivots, s.WarmResolves)
	return nil
}

// countersOf keeps the cache counters a deterministic op sequence must
// repeat exactly.
func countersOf(s memo.Stats) [10]int64 {
	return [10]int64{s.Lookups, s.Hits, s.Misses, s.DeltaHits, s.DeltaFallbacks, s.Evictions,
		s.Bytes, s.ColdPivots, s.WarmPivots, s.WarmResolves}
}

// checkDeterminism replays a fixed churn prefix on two fresh daemons
// and requires identical memo and pivot counters: a drift means the
// generator (or the daemon) is not deterministic.
func checkDeterminism(w workload, dep *deployment, pairs [][2]int, seed int64) error {
	var got [2][10]int64
	for i := range got {
		d, _, _, err := setUp(w, dep, warmPairs(w, pairs, seed))
		if err != nil {
			return err
		}
		c := newClientRun(d, dep, newGenerator(w, pairs, seed, streamClient), dep.background)
		for c.attempted < 4*determinismCycles {
			c.step()
		}
		s, err := getStats(d)
		d.close()
		if err != nil {
			return err
		}
		if c.failed > 0 {
			return fmt.Errorf("determinism replay: %d failed requests", c.failed)
		}
		got[i] = countersOf(s)
	}
	if got[0] != got[1] {
		return fmt.Errorf("cache counters differ between two runs of seed %d: %v vs %v", seed, got[0], got[1])
	}
	return nil
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantileMs returns the nearest-rank q-quantile of ns latencies in ms.
func quantileMs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(float64(len(s))*q+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / 1e6
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"time"

	"abw/internal/core"
	"abw/internal/estimate"
	"abw/internal/indepset"
	"abw/internal/lp"
	"abw/internal/memo"
	"abw/internal/obs"
	"abw/internal/routing"
	"abw/internal/schedule"
	"abw/internal/server"
	"abw/internal/topology"
)

// baselineShare is the share of --seconds the untraced baseline replay
// runs; the traced replay then repeats the same ops three ways.
const baselineShare = 0.3

// runTraced is the traced run. Phase B replays client 0's op sequence
// untraced over HTTP (the per-op latency base and the runtime/metrics
// deltas). Phase T replays the same ops, each three times: over HTTP
// with the daemon's trace block on, through Server.Handler().ServeHTTP
// in process, and through the public functions of each layer on a
// replica with its own cache and session, in the handler's order. So
//
//	trace.op_us = server.wire_us + server.self_us + Σ layer times
//
// where wire is the round trip minus ServeHTTP and self is ServeHTTP
// minus the replica's layer calls.
func runTraced(w workload, seed int64, dur time.Duration, stderr io.Writer) (*result, error) {
	ctx := context.Background()
	dep, err := newDeployment(ctx)
	if err != nil {
		return nil, err
	}
	pairs := pairSet(w, seed, dep.net)
	warm := warmPairs(w, pairs, seed)
	res := newResult()
	all := answerStore{}

	dB, _, setB, err := setUp(w, dep, warm)
	if err != nil {
		return nil, err
	}
	dT, _, setT, err := setUp(w, dep, warm)
	if err != nil {
		return nil, err
	}
	defer dT.close()
	for _, c := range []*clientRun{setB, setT} {
		all.merge(c.answers)
		res.Attempted += c.attempted
	}
	inproc, err := setUpInProcess(w, dep, warm)
	if err != nil {
		return nil, err
	}
	rt := newRuntimeReader()
	rep, err := newReplica(w, dep, warm, rt)
	if err != nil {
		return nil, err
	}

	// Phase B: untraced baseline.
	b := newClientRun(dB, dep, newGenerator(w, pairs, seed, streamClient), dep.background)
	m0 := rt.snapshot()
	deadline := time.Now().Add(time.Duration(float64(dur) * baselineShare))
	for b.attempted == 0 || time.Now().Before(deadline) {
		b.step()
	}
	m1 := rt.snapshot()
	n := b.attempted
	dB.close() // its state is not needed again; let the GC have it
	b.d = nil
	var baseNs int64
	for _, l := range [][]int64{b.lat.query, b.lat.admit, b.lat.delete} {
		for _, v := range l {
			baseNs += v
		}
	}

	// Phase T: the same n ops, traced three ways.
	t := newClientRun(dT, dep, newGenerator(w, pairs, seed, streamClient), dep.background)
	t.trace = true
	cache0 := inproc.srv.CacheStats()
	var rtNs, svNs, layerNs, svAllocs, layerAllocs, stageNs, totalNs int64
	var mismatches int64
	for t.attempted < n {
		o := t.step()
		rtNs += t.lastNs
		if td := t.lastTrace; td != nil {
			totalNs += td.TotalNs
			for _, st := range td.Stages {
				stageNs += st.WallNs
			}
		}
		want, wantErr := decodeOutcome(o.kind, t.buf.Bytes())

		body := o.body(true)
		req := httptest.NewRequest(o.method(), o.path(), bytes.NewReader(body))
		rec := httptest.NewRecorder()
		a0 := rt.allocs()
		s0 := time.Now()
		inproc.h.ServeHTTP(rec, req)
		sv := time.Since(s0).Nanoseconds()
		svAllocs += rt.allocs() - a0
		svNs += sv
		got, gotErr := decodeOutcome(o.kind, rec.Body.Bytes())

		l0, la0 := rep.totalNs, rep.totalAllocs
		repOut, repErr := rep.exec(o)
		layerNs += rep.totalNs - l0
		layerAllocs += rep.totalAllocs - la0

		if wantErr != nil {
			continue // a malformed daemon answer already counts as failed
		}
		if gotErr == nil {
			gotErr = got.diff(want)
		}
		if repErr == nil {
			repErr = repOut.diff(want)
		}
		for _, e := range []struct {
			who string
			err error
		}{{"in-process handler", gotErr}, {"replica", repErr}} {
			if e.err != nil {
				mismatches++
				if mismatches <= 5 {
					res.fail(stderr, "%s answer to op %d differs from the daemon's: %v", e.who, t.attempted, e.err)
				}
			}
		}
	}
	cache1 := inproc.srv.CacheStats()

	for _, c := range []*clientRun{b, t} {
		all.merge(c.answers)
		res.Attempted += c.attempted
		res.Failed += c.failed
	}
	res.Failed += mismatches
	res.Failed += newVerifier(dep).check(ctx, all, verifyWorkers, stderr)
	if res.Failed > 0 {
		res.Correct = false
	}

	fn := float64(n)
	us := func(ns int64) float64 { return float64(ns) / fn / 1e3 }
	res.set("server.wire_us", us(rtNs-svNs))
	res.set("server.self_us", us(svNs-layerNs))
	res.set("server.allocs_per_op", float64(svAllocs-layerAllocs)/fn)
	for _, l := range []struct{ metric, layer string }{
		{"routing.find_path_us", layerRouting},
		{"core.idle_us", layerIdle},
		{"core.feasible_us", layerFeasible},
		{"core.avail_us", layerAvail},
		{"memo.lookup_us", layerMemo},
		{"indepset.enumerate_us", layerEnumerate},
		{"estimate.us", layerEstimate},
	} {
		res.set(l.metric, us(rep.layer(l.layer).ns))
	}
	res.set("routing.allocs_per_call", rep.layer(layerRouting).allocsPerCall())
	res.set("estimate.allocs_per_call", rep.layer(layerEstimate).allocsPerCall())
	res.set("indepset.sets_per_call", ratio(rep.sets, rep.layer(layerEnumerate).calls))
	res.set("lp.cold_pivots_per_op", float64(rep.coldPivots)/fn)
	res.set("lp.warm_pivots_per_op", float64(rep.warmPivots)/fn)
	res.set("lp.warm_resolve_ratio", ratio(rep.warmSolves, rep.warmSolves+rep.coldSolves))
	setMemoMetrics(res, cache0, cache1)
	res.set("runtime.allocs_per_op", float64(m1.allocs-m0.allocs)/fn)
	res.set("runtime.alloc_kb_per_op", float64(m1.allocBytes-m0.allocBytes)/fn/1024)
	res.set("runtime.gc_cpu_frac", ratioF(m1.gcCPU-m0.gcCPU, m1.totalCPU-m0.totalCPU))
	res.set("trace.op_us", us(rtNs))
	res.set("trace.overhead_frac", float64(rtNs)/float64(baseNs)-1)
	res.set("obs.stage_sum_over_total", ratio(stageNs, totalNs))
	fmt.Fprintf(stderr, "abwperf: %s seed %d traced %d ops: op %.1fus = wire %.1f + server self %.1f + layers %.1f; %.0f MB from the OS\n",
		w.name, seed, n, us(rtNs), us(rtNs-svNs), us(svNs-layerNs), us(layerNs), float64(rt.ms.Sys)/1e6)
	return res, nil
}

func setMemoMetrics(res *result, a, b memo.Stats) {
	lookups := b.Lookups - a.Lookups
	res.set("memo.hit_ratio", ratio(b.Hits-a.Hits, lookups))
	res.set("memo.delta_ratio", ratio(b.DeltaHits-a.DeltaHits, lookups))
	res.set("memo.miss_ratio", ratio(b.Misses-a.Misses, lookups))
	res.set("memo.evictions", float64(b.Evictions-a.Evictions))
	res.set("memo.bytes_mb", float64(b.Bytes)/1e6)
}

func ratio(a, b int64) float64 { return ratioF(float64(a), float64(b)) }

func ratioF(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// inProcess is a server driven through its handler without a listener.
type inProcess struct {
	srv *server.Server
	h   http.Handler
}

func (p *inProcess) serve(method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// setUpInProcess brings an in-process server to the same state setUp
// brings a daemon to.
func setUpInProcess(w workload, dep *deployment, warm [][2]int) (*inProcess, error) {
	srv := newServer(w)
	p := &inProcess{srv: srv, h: srv.Handler()}
	if rec := p.serve("PUT", "/v1/network", dep.networkBody); rec.Code != http.StatusOK {
		return nil, fmt.Errorf("in-process PUT /v1/network: %d %s", rec.Code, rec.Body.Bytes())
	}
	for _, rq := range dep.requests {
		o := op{kind: opAdmit, src: int(rq.Src), dst: int(rq.Dst), demand: rq.Demand}
		if rec := p.serve(o.method(), o.path(), o.body(false)); rec.Code != http.StatusCreated {
			return nil, fmt.Errorf("in-process background %d->%d: %d %s", rq.Src, rq.Dst, rec.Code, rec.Body.Bytes())
		}
	}
	for _, pr := range warm {
		o := op{kind: opQuery, src: pr[0], dst: pr[1]}
		if rec := p.serve(o.method(), o.path(), o.body(false)); rec.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process warm-up %d->%d: %d %s", pr[0], pr[1], rec.Code, rec.Body.Bytes())
		}
	}
	return p, nil
}

// Layer names of the replica's accumulators.
const (
	layerIdle      = "core.idle"
	layerRouting   = "routing.find_path"
	layerAvail     = "core.avail"
	layerFeasible  = "core.feasible"
	layerEstimate  = "estimate"
	layerMemo      = "memo.lookup"
	layerEnumerate = "indepset.enumerate"
)

// layerAcc accumulates one layer's self time, calls and allocations.
type layerAcc struct {
	ns, calls, allocs int64
}

func (a *layerAcc) allocsPerCall() float64 {
	if a == nil {
		return 0
	}
	return ratio(a.allocs, a.calls)
}

// replica repeats the handler's layer calls for each op on its own
// model, cache and session. Each top-level call runs under its own
// obs span; memo lookups and DFS walks recorded inside it are child
// spans, moved to the memo and indepset layers, so every layer's time
// is self time.
type replica struct {
	dep  *deployment
	opts core.Options
	sess *core.Session
	bg   *bgState
	// nextID mirrors the daemon's flow ids.
	nextID int
	rt     *runtimeReader

	acc                    map[string]*layerAcc
	totalNs, totalAllocs   int64
	sets                   int64
	coldPivots, warmPivots int64
	coldSolves, warmSolves int64
}

func newReplica(w workload, dep *deployment, warm [][2]int, rt *runtimeReader) (*replica, error) {
	r := &replica{dep: dep, bg: &bgState{}, rt: rt, acc: map[string]*layerAcc{}}
	if w.cache {
		r.opts.Cache = memo.New(0)
		r.sess = core.NewSession(dep.model, r.opts)
	}
	for _, rq := range dep.requests {
		out, err := r.exec(op{kind: opAdmit, src: int(rq.Src), dst: int(rq.Dst), demand: rq.Demand})
		if err != nil {
			return nil, err
		}
		if !out.admitted {
			return nil, fmt.Errorf("replica refused background %d->%d", rq.Src, rq.Dst)
		}
	}
	if r.bg.sig != dep.background.sig {
		return nil, fmt.Errorf("replica background differs from the reference")
	}
	for _, p := range warm {
		if _, err := r.exec(op{kind: opQuery, src: p[0], dst: p[1]}); err != nil {
			return nil, err
		}
	}
	r.reset()
	return r, nil
}

func (r *replica) reset() {
	r.acc = map[string]*layerAcc{}
	r.totalNs, r.totalAllocs, r.sets = 0, 0, 0
	r.coldPivots, r.warmPivots, r.coldSolves, r.warmSolves = 0, 0, 0, 0
}

func (r *replica) layer(name string) *layerAcc {
	a := r.acc[name]
	if a == nil {
		a = &layerAcc{}
		r.acc[name] = a
	}
	return a
}

// call times one layer call. With spanned, the call runs under an obs
// span whose memo and enumerate stages are moved to their own layers
// and whose LP stages feed the pivot counters.
func (r *replica) call(name string, spanned bool, f func(context.Context) error) error {
	ctx := context.Background()
	var span *obs.Span
	if spanned {
		span = obs.NewSpan("")
		ctx = obs.WithSpan(ctx, span)
	}
	a0 := r.rt.allocs()
	t0 := time.Now()
	err := f(ctx)
	ns := time.Since(t0).Nanoseconds()
	allocs := r.rt.allocs() - a0
	r.totalNs += ns
	r.totalAllocs += allocs
	var child int64
	if td := span.Trace(); td != nil {
		for _, st := range td.Stages {
			switch st.Stage {
			case obs.StageMemo:
				r.layer(layerMemo).ns += st.WallNs
				r.layer(layerMemo).calls += st.Calls
				child += st.WallNs
			case obs.StageEnumerate:
				r.layer(layerEnumerate).ns += st.WallNs
				r.layer(layerEnumerate).calls += st.Calls
				r.sets += st.Sets
				child += st.WallNs
			case obs.StageLPSolve:
				r.coldPivots += st.Pivots
				r.coldSolves += st.Calls
			case obs.StageLPWarm:
				r.warmPivots += st.Pivots
				r.warmSolves += st.Calls
			}
		}
	}
	a := r.layer(name)
	a.ns += ns - child
	a.calls++
	a.allocs += allocs
	return err
}

// exec applies one op to the replica.
func (r *replica) exec(o op) (outcome, error) {
	if o.kind == opDelete {
		r.bg = r.bg.without(o.id)
		return outcome{}, nil
	}
	out, err := r.answer(o.src, o.dst)
	if err != nil || o.kind != opAdmit {
		return out, err
	}
	if !out.feasible || out.bandwidth+admitSlack < o.demand {
		out.nodes, out.feasible = nil, true
		return out, nil
	}
	r.nextID++
	next, err := r.bg.with(r.dep, r.nextID, out.nodes, o.demand)
	if err != nil {
		return outcome{}, err
	}
	r.bg = next
	out.admitted, out.id, out.feasible = true, r.nextID, true
	return out, nil
}

// answer makes the layer calls handleQuery makes, in its order:
// idleness, routing, availability, background schedule, estimation.
func (r *replica) answer(src, dst int) (outcome, error) {
	net, model, flows := r.dep.net, r.dep.model, r.bg.flows
	var idle []float64
	err := r.call(layerIdle, true, func(ctx context.Context) error {
		var err error
		if r.sess != nil {
			idle, err = r.sess.IdleRatiosContext(ctx, net, flows)
		} else {
			idle, err = routing.BackgroundIdlenessContext(ctx, net, model, flows, r.opts)
		}
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	var path topology.Path
	err = r.call(layerRouting, false, func(context.Context) error {
		var err error
		path, err = routing.FindPath(net, model, routing.MetricAvgE2ED, idle, topology.NodeID(src), topology.NodeID(dst))
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	var res *core.Result
	if r.sess != nil {
		err = r.call(layerAvail, true, func(ctx context.Context) error {
			var err error
			res, err = r.sess.AvailableBandwidthContext(ctx, flows, path)
			return err
		})
	} else {
		paths := make([]topology.Path, 0, len(flows)+1)
		for _, f := range flows {
			paths = append(paths, f.Path)
		}
		universe := topology.LinkUnion(append(paths, path)...)
		var sets []indepset.Set
		err = r.call(layerEnumerate, true, func(ctx context.Context) error {
			var err error
			sets, err = indepset.EnumerateContext(ctx, model, universe, indepset.Options{})
			return err
		})
		if err == nil {
			err = r.call(layerAvail, true, func(ctx context.Context) error {
				var err error
				res, err = core.AvailableBandwidthWithSetsContext(ctx, model, flows, path, sets)
				return err
			})
		}
	}
	if err != nil {
		return outcome{}, err
	}
	var sched schedule.Schedule
	err = r.call(layerFeasible, true, func(ctx context.Context) error {
		if r.sess == nil {
			var err error
			sched, err = routing.BackgroundScheduleContext(ctx, model, flows, r.opts)
			return err
		}
		if len(flows) == 0 {
			return nil
		}
		ok, s, err := r.sess.FeasibleDemandsContext(ctx, flows)
		if err == nil && !ok {
			err = fmt.Errorf("background not schedulable")
		}
		sched = s
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	err = r.call(layerEstimate, false, func(context.Context) error {
		ps, err := estimate.PathStateFromSchedule(net, model, sched, path)
		if err != nil {
			return err
		}
		_, err = estimate.EstimateAll(model, ps)
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	nodes, err := net.PathNodes(path)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{nodes: make([]int, 0, len(nodes))}
	for _, n := range nodes {
		out.nodes = append(out.nodes, int(n))
	}
	if res.Status == lp.Optimal {
		out.feasible, out.bandwidth = true, res.Bandwidth
	}
	return out, nil
}

// runtimeReader reads process-wide allocation counters (exact:
// ReadMemStats flushes every per-P cache) and GC CPU time from
// runtime/metrics.
type runtimeReader struct {
	ms  runtime.MemStats
	cpu []metrics.Sample
}

func newRuntimeReader() *runtimeReader {
	return &runtimeReader{cpu: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"},
	}}
}

// allocs returns the cumulative heap allocation count.
func (r *runtimeReader) allocs() int64 {
	runtime.ReadMemStats(&r.ms)
	return int64(r.ms.Mallocs)
}

type runtimeSnap struct {
	allocs, allocBytes int64
	gcCPU, totalCPU    float64
}

func (r *runtimeReader) snapshot() runtimeSnap {
	runtime.ReadMemStats(&r.ms)
	metrics.Read(r.cpu)
	return runtimeSnap{
		allocs:     int64(r.ms.Mallocs),
		allocBytes: int64(r.ms.TotalAlloc),
		gcCPU:      r.cpu[0].Value.Float64(),
		totalCPU:   r.cpu[1].Value.Float64(),
	}
}

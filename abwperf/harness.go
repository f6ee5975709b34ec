package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"time"

	"abw/internal/conflict"
	"abw/internal/core"
	"abw/internal/experiments"
	"abw/internal/lp"
	"abw/internal/netjson"
	"abw/internal/obs"
	"abw/internal/routing"
	"abw/internal/server"
	"abw/internal/topology"
)

// numBackground is how many Sec. 5.2 requests are installed as
// background during set-up.
const numBackground = 4

// bwTol is the bandwidth tolerance of the session property tests
// (internal/core sessionTol): warm and cold optima may differ by
// pivot-tolerance noise only.
const bwTol = 1e-7

// admitSlack is the server's admission slack: admit when
// bandwidth+admitSlack >= demand.
const admitSlack = 1e-9

// deployment is the Sec. 5.2 evaluation network (experiments.Fig2Setup)
// and its reference background.
type deployment struct {
	net   *topology.Network
	model *conflict.Physical
	// networkBody is the PUT /v1/network body.
	networkBody []byte
	// requests are the background requests installed in set-up.
	requests []routing.Request
	// background is the reference state after set-up.
	background *bgState
}

func newDeployment(ctx context.Context) (*deployment, error) {
	net, model, reqs, err := experiments.Fig2Setup()
	if err != nil {
		return nil, fmt.Errorf("building the Sec. 5.2 deployment: %w", err)
	}
	var spec struct {
		Nodes []netjson.NodeSpec `json:"nodes"`
	}
	for _, n := range net.Nodes() {
		spec.Nodes = append(spec.Nodes, netjson.NodeSpec{X: n.Pos.X, Y: n.Pos.Y})
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	dep := &deployment{net: net, model: model, networkBody: body, requests: reqs[:numBackground], background: &bgState{}}
	for i, rq := range dep.requests {
		ref, err := reference(ctx, dep, dep.background, int(rq.Src), int(rq.Dst))
		if err != nil {
			return nil, fmt.Errorf("reference for background %d->%d: %w", rq.Src, rq.Dst, err)
		}
		if !ref.admits(rq.Demand) {
			return nil, fmt.Errorf("background request %d->%d is not admitted by the reference", rq.Src, rq.Dst)
		}
		dep.background, err = dep.background.with(dep, i+1, ref.nodes, rq.Demand)
		if err != nil {
			return nil, err
		}
	}
	return dep, nil
}

// outcome is what a query or an admission decided. For an admission,
// feasible is always true, bandwidth is the available bandwidth the
// decision was taken on, and nodes and id are set only when admitted.
type outcome struct {
	nodes     []int
	feasible  bool
	bandwidth float64
	admitted  bool
	id        int
}

func (o outcome) admits(demand float64) bool {
	return o.feasible && o.bandwidth+admitSlack >= demand
}

// diff reports how o differs from want: path nodes, feasibility, the
// admit decision and flow id exactly, bandwidth within bwTol.
func (o outcome) diff(want outcome) error {
	if !slices.Equal(o.nodes, want.nodes) {
		return fmt.Errorf("path %v, want %v", o.nodes, want.nodes)
	}
	if o.feasible != want.feasible || o.admitted != want.admitted || o.id != want.id {
		return fmt.Errorf("feasible=%v admitted=%v id=%d, want %v %v %d", o.feasible, o.admitted, o.id, want.feasible, want.admitted, want.id)
	}
	if math.Abs(o.bandwidth-want.bandwidth) > bwTol {
		return fmt.Errorf("bandwidth %.12f Mbps, want %.12f", o.bandwidth, want.bandwidth)
	}
	return nil
}

// reference answers a pair the uncached way: idle ratios from the
// background's minimal-airtime schedule, routing.FindPath under the
// daemon's default metric, then core.AvailableBandwidthContext with no
// cache.
func reference(ctx context.Context, dep *deployment, bg *bgState, src, dst int) (outcome, error) {
	idle, err := routing.BackgroundIdlenessContext(ctx, dep.net, dep.model, bg.flows, core.Options{})
	if err != nil {
		return outcome{}, err
	}
	path, err := routing.FindPath(dep.net, dep.model, routing.MetricAvgE2ED, idle, topology.NodeID(src), topology.NodeID(dst))
	if err != nil {
		return outcome{}, err
	}
	res, err := core.AvailableBandwidthContext(ctx, dep.model, bg.flows, path, core.Options{})
	if err != nil {
		return outcome{}, err
	}
	nodes, err := dep.net.PathNodes(path)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{nodes: make([]int, 0, len(nodes))}
	for _, n := range nodes {
		out.nodes = append(out.nodes, int(n))
	}
	if res.Status == lp.Optimal {
		out.feasible = true
		out.bandwidth = res.Bandwidth
	}
	return out, nil
}

// bgState is an immutable admitted-flow state: the flows a client
// believes are live, by server flow id. Operations record the state
// they ran against, so verification can recompute the reference later.
type bgState struct {
	ids   []int
	nodes [][]int
	flows []core.Flow
	sig   string // canonical: equal states have equal signatures
}

func (b *bgState) with(dep *deployment, id int, nodes []int, demand float64) (*bgState, error) {
	ids := make([]topology.NodeID, 0, len(nodes))
	for _, n := range nodes {
		ids = append(ids, topology.NodeID(n))
	}
	path, err := dep.net.PathFromNodes(ids)
	if err != nil {
		return nil, fmt.Errorf("flow %d path %v: %w", id, nodes, err)
	}
	out := &bgState{
		ids:   append(append([]int(nil), b.ids...), id),
		nodes: append(append([][]int(nil), b.nodes...), nodes),
		flows: append(append([]core.Flow(nil), b.flows...), core.Flow{Path: path, Demand: demand}),
	}
	out.sign()
	return out, nil
}

func (b *bgState) without(id int) *bgState {
	out := &bgState{}
	for i, have := range b.ids {
		if have != id {
			out.ids = append(out.ids, have)
			out.nodes = append(out.nodes, b.nodes[i])
			out.flows = append(out.flows, b.flows[i])
		}
	}
	out.sign()
	return out
}

func (b *bgState) sign() {
	var sb strings.Builder
	for i, f := range b.flows {
		for _, n := range b.nodes[i] {
			sb.WriteString(strconv.Itoa(n))
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatUint(math.Float64bits(f.Demand), 16))
		sb.WriteByte(';')
	}
	b.sig = sb.String()
}

// daemon is one internal/server instance on a loopback listener.
type daemon struct {
	ts   *httptest.Server
	hc   *http.Client
	base string
}

// newServer builds a server configured like abwd for the workload.
func newServer(w workload) *server.Server {
	srv := server.New()
	if w.cache {
		srv.SetCacheBytes(0) // abwd -cache
	}
	return srv
}

func startDaemon(w workload) *daemon {
	ts := httptest.NewServer(newServer(w).Handler())
	tr := &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}
	return &daemon{ts: ts, hc: &http.Client{Transport: tr}, base: ts.URL}
}

// close stops the listener, waits for in-flight requests and drops the
// client's idle connections.
func (d *daemon) close() {
	d.hc.CloseIdleConnections()
	d.ts.Close()
}

// do sends one request and reads the whole answer into buf.
func (d *daemon) do(method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// queryAnswer is the part of a /v1/query answer the benchmark checks.
type queryAnswer struct {
	Feasible  bool           `json:"feasible"`
	Bandwidth float64        `json:"bandwidthMbps"`
	PathNodes []int          `json:"pathNodes"`
	Trace     *obs.TraceData `json:"trace"`
}

// flowAnswer is the part of a POST /v1/flows answer the benchmark
// checks.
type flowAnswer struct {
	Admitted  bool    `json:"admitted"`
	Available float64 `json:"availableMbps"`
	Flow      *struct {
		ID    int   `json:"id"`
		Nodes []int `json:"pathNodes"`
	} `json:"flow"`
}

func decodeOutcome(kind opKind, body []byte) (outcome, error) {
	switch kind {
	case opQuery:
		var a queryAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return outcome{}, err
		}
		return outcome{nodes: a.PathNodes, feasible: a.Feasible, bandwidth: a.Bandwidth}, nil
	case opAdmit:
		var a flowAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return outcome{}, err
		}
		o := outcome{feasible: true, bandwidth: a.Available, admitted: a.Admitted}
		if a.Flow != nil {
			o.nodes, o.id = a.Flow.Nodes, a.Flow.ID
		}
		return o, nil
	}
	return outcome{}, nil
}

// answerKey names one question: the op and the state it ran against.
type answerKey struct {
	kind     opKind
	bg       *bgState
	src, dst int
	demand   float64
}

// answerStore keeps the distinct raw answers to each question with
// their counts, so every answer is verified without keeping one record
// per operation.
type answerStore map[answerKey]map[string]int64

func (s answerStore) add(k answerKey, body []byte) {
	m := s[k]
	if m == nil {
		m = map[string]int64{}
		s[k] = m
	}
	m[string(body)]++
}

func (s answerStore) merge(o answerStore) {
	for k, bodies := range o {
		m := s[k]
		if m == nil {
			s[k] = bodies
			continue
		}
		for b, n := range bodies {
			m[b] += n
		}
	}
}

// latencies are per-op client latencies in nanoseconds.
type latencies struct {
	query, admit, delete []int64
}

func (l *latencies) merge(o latencies) {
	l.query = append(l.query, o.query...)
	l.admit = append(l.admit, o.admit...)
	l.delete = append(l.delete, o.delete...)
}

// clientRun is one closed-loop client: it sends an op, waits for the
// answer, records latency and answer, and tracks the flow state.
type clientRun struct {
	d     *daemon
	dep   *deployment
	g     *generator
	bg    *bgState
	trace bool // ask queries for the daemon's trace block

	buf       bytes.Buffer
	lat       latencies
	answers   answerStore
	attempted int64
	failed    int64
	// lastNs is the latency of the most recent op and lastTrace its
	// trace block (traced queries only).
	lastNs    int64
	lastTrace *obs.TraceData
}

func newClientRun(d *daemon, dep *deployment, g *generator, bg *bgState) *clientRun {
	return &clientRun{d: d, dep: dep, g: g, bg: bg, answers: answerStore{}}
}

// step runs the generator's next op.
func (c *clientRun) step() op {
	o := c.g.next()
	if id, ok := c.exec(o); ok && o.kind == opAdmit {
		c.g.admitted(id)
	}
	return o
}

// exec sends one op. For an admission it returns the new flow id and
// whether the flow was admitted. Transport errors and unexpected
// statuses count as failures; a refused admission does not.
func (c *clientRun) exec(o op) (int, bool) {
	c.attempted++
	c.lastTrace = nil
	body := o.body(c.trace)
	t0 := time.Now()
	status, err := c.d.do(o.method(), o.path(), body, &c.buf)
	ns := time.Since(t0).Nanoseconds()
	c.lastNs = ns
	switch o.kind {
	case opQuery:
		c.lat.query = append(c.lat.query, ns)
	case opAdmit:
		c.lat.admit = append(c.lat.admit, ns)
	default:
		c.lat.delete = append(c.lat.delete, ns)
	}
	want := http.StatusOK
	if err != nil || (status != want && !(o.kind == opAdmit && status == http.StatusCreated)) {
		c.failed++
		return 0, false
	}
	switch o.kind {
	case opQuery:
		if c.trace {
			// Trace blocks carry timings, so every answer is distinct;
			// keep the checked fields only.
			var a queryAnswer
			if json.Unmarshal(c.buf.Bytes(), &a) != nil {
				c.failed++
				return 0, false
			}
			c.lastTrace, a.Trace = a.Trace, nil
			b, _ := json.Marshal(a) // plain struct: cannot fail
			c.answers.add(answerKey{kind: opQuery, bg: c.bg, src: o.src, dst: o.dst}, b)
			return 0, false
		}
		c.answers.add(answerKey{kind: opQuery, bg: c.bg, src: o.src, dst: o.dst}, c.buf.Bytes())
	case opAdmit:
		var a flowAnswer
		if json.Unmarshal(c.buf.Bytes(), &a) != nil {
			c.failed++
			return 0, false
		}
		c.answers.add(answerKey{kind: opAdmit, bg: c.bg, src: o.src, dst: o.dst, demand: o.demand}, c.buf.Bytes())
		if !a.Admitted || a.Flow == nil {
			return 0, false
		}
		next, err := c.bg.with(c.dep, a.Flow.ID, a.Flow.Nodes, o.demand)
		if err != nil {
			c.failed++
			return 0, false
		}
		c.bg = next
		return a.Flow.ID, true
	case opDelete:
		c.bg = c.bg.without(o.id)
	}
	return 0, false
}

// setUp builds a daemon for the workload and brings it to the timed
// phase's starting state: network PUT, the background admissions and
// the warm-up queries. It returns the daemon, the set-up time, and the
// client that ran set-up (whose answers still need verifying).
func setUp(w workload, dep *deployment, warm [][2]int) (*daemon, time.Duration, *clientRun, error) {
	t0 := time.Now()
	d := startDaemon(w)
	c := newClientRun(d, dep, nil, &bgState{})
	status, err := d.do("PUT", "/v1/network", dep.networkBody, &c.buf)
	if err != nil {
		d.close()
		return nil, 0, nil, fmt.Errorf("PUT /v1/network: %w", err)
	}
	if status != http.StatusOK {
		d.close()
		return nil, 0, nil, fmt.Errorf("PUT /v1/network: status %d: %s", status, c.buf.Bytes())
	}
	for _, rq := range dep.requests {
		if _, ok := c.exec(op{kind: opAdmit, src: int(rq.Src), dst: int(rq.Dst), demand: rq.Demand}); !ok {
			d.close()
			return nil, 0, nil, fmt.Errorf("background request %d->%d not admitted: %s", rq.Src, rq.Dst, c.buf.Bytes())
		}
	}
	for _, p := range warm {
		c.exec(op{kind: opQuery, src: p[0], dst: p[1]})
	}
	el := time.Since(t0)
	if c.failed > 0 {
		d.close()
		return nil, 0, nil, fmt.Errorf("set-up: %d failed requests", c.failed)
	}
	if c.bg.sig != dep.background.sig {
		d.close()
		return nil, 0, nil, fmt.Errorf("set-up background differs from the reference")
	}
	// Later ops key their answers by the shared reference state.
	c.bg = dep.background
	return d, el, c, nil
}

// warmPairs is the set-up warm-up pass: every hot pair once on a hot
// workload, else the first pairs of a seeded draw.
func warmPairs(w workload, pairs [][2]int, seed int64) [][2]int {
	if w.hotPairs > 0 {
		return pairs
	}
	rng := rand.New(rand.NewSource(streamSeed(seed, streamHot)))
	out := make([][2]int, 0, 8)
	for i := 0; i < 8; i++ {
		out = append(out, pairs[rng.Intn(len(pairs))])
	}
	return out
}

package main

import (
	"math/rand"
	"sort"
	"strconv"

	"abw/internal/topology"
)

// workload is one traffic mix against the Sec. 5.2 deployment.
type workload struct {
	name string
	why  string
	// cache turns on the daemon's memo cache (abwd -cache).
	cache bool
	// clients is the number of closed-loop clients in the timed phase.
	clients int
	// hotPairs > 0 draws queries from a seeded hot set of that many
	// pairs (touched once in set-up); 0 draws uniformly over all
	// ordered pairs.
	hotPairs int
	// maxHops > 0 keeps only pairs at most that many hops apart in the
	// connectivity graph.
	maxHops int
	// churn runs admit / tear-down / query cycles instead of queries.
	churn bool
	// opsPerSecond > 0 fixes the work of the timed phase at that many
	// operations per second of --seconds (each round stops at its share,
	// or at twice its time, whichever comes first) instead of running
	// for the time alone. Admit-churn's retained state grows with every
	// write, so a fixed op count keeps its heap, and the GC work that
	// heap costs, from following the host's speed.
	opsPerSecond int
}

// maxLive is the number of flows, background included, kept live on
// admit-churn: once more are live, each cycle tears the oldest churn
// flow down.
const maxLive = 6

var workloads = []workload{
	{
		name:     "query-hot",
		why:      "warm controller, 2 clients on 24 hop-stratified hot pairs: memo always hits, warm LP ~0 pivots; loads HTTP/JSON, routing, estimate; bypasses DFS and cold LP",
		cache:    true,
		clients:  2,
		hotPairs: 24,
	},
	{
		name:    "query-cold",
		why:     "default daemon (no cache), 1 client on uniform pairs: every query runs the indepset DFS and cold LPs; bypasses memo, delta, warm LP and session",
		clients: 1,
	},
	{
		name:         "admit-churn",
		why:          "cache on, 1 client, pairs <=2 hops, 300 ops per run second: admit, tear down oldest past 6 live flows, 2 queries; loads delta, evictions, cold LP per write, session growth",
		cache:        true,
		clients:      1,
		maxHops:      2,
		churn:        true,
		opsPerSecond: 300,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// opKind is the kind of one client operation.
type opKind int

const (
	opQuery  opKind = iota // POST /v1/query
	opAdmit                // POST /v1/flows
	opDelete               // DELETE /v1/flows/{id}
)

// op is one client operation.
type op struct {
	kind     opKind
	src, dst int
	demand   float64 // opAdmit only
	id       int     // opDelete only
}

// method and path of the HTTP request carrying the op.
func (o op) method() string {
	switch o.kind {
	case opDelete:
		return "DELETE"
	default:
		return "POST"
	}
}

func (o op) path() string {
	switch o.kind {
	case opAdmit:
		return "/v1/flows"
	case opDelete:
		return "/v1/flows/" + strconv.Itoa(o.id)
	default:
		return "/v1/query"
	}
}

// body is the request body; trace asks a query for the daemon's trace
// block.
func (o op) body(trace bool) []byte {
	b := make([]byte, 0, 64)
	switch o.kind {
	case opDelete:
		return nil
	case opAdmit:
		b = append(b, `{"src":`...)
		b = strconv.AppendInt(b, int64(o.src), 10)
		b = append(b, `,"dst":`...)
		b = strconv.AppendInt(b, int64(o.dst), 10)
		b = append(b, `,"demandMbps":`...)
		b = strconv.AppendFloat(b, o.demand, 'g', -1, 64)
	default:
		b = append(b, `{"src":`...)
		b = strconv.AppendInt(b, int64(o.src), 10)
		b = append(b, `,"dst":`...)
		b = strconv.AppendInt(b, int64(o.dst), 10)
		if trace {
			b = append(b, `,"trace":true`...)
		}
	}
	return append(b, '}')
}

// streamSeed derives an independent stream seed from the workload seed
// (splitmix64 finalizer), so each client and the pair set draw from
// decorrelated generators.
func streamSeed(seed int64, stream int) int64 {
	z := uint64(seed) + uint64(stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Streams of streamSeed: the hot set, the admission probe, and one per
// client from streamClient on.
const (
	streamHot = iota
	streamProbe
	streamClient
)

// pairsByHops groups every ordered pair of distinct, connected nodes
// at most maxHops hops apart (any distance when maxHops is 0) by hop
// count; byHops[h] holds the pairs h hops apart.
func pairsByHops(net *topology.Network, maxHops int) [][][2]int {
	var byHops [][][2]int
	for s := 0; s < net.NumNodes(); s++ {
		for d, h := range hopCounts(net, s) {
			if d == s || h <= 0 || (maxHops > 0 && h > maxHops) {
				continue
			}
			for len(byHops) <= h {
				byHops = append(byHops, nil)
			}
			byHops[h] = append(byHops[h], [2]int{s, d})
		}
	}
	return byHops
}

// hopCounts returns the BFS hop count from src to every node (-1 when
// unreachable, 0 for src).
func hopCounts(net *topology.Network, src int) []int {
	hops := make([]int, net.NumNodes())
	for i := range hops {
		hops[i] = -1
	}
	hops[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, l := range net.OutLinks(topology.NodeID(u)) {
			v := int(net.MustLink(l).Rx)
			if hops[v] < 0 {
				hops[v] = hops[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return hops
}

// pairSet is the set of pairs a workload draws from: every eligible
// pair, or a seeded hot set. The hot set is stratified by hop count in
// the population's proportions (largest remainder), so every seed gets
// the same mix of path lengths and seeds differ only in which pairs.
func pairSet(w workload, seed int64, net *topology.Network) [][2]int {
	byHops := pairsByHops(net, w.maxHops)
	total := 0
	for _, ps := range byHops {
		total += len(ps)
	}
	if w.hotPairs == 0 {
		all := make([][2]int, 0, total)
		for _, ps := range byHops {
			all = append(all, ps...)
		}
		return all
	}
	quota := make([]int, len(byHops))
	type rem struct {
		h    int
		frac float64
	}
	var rems []rem
	left := w.hotPairs
	for h, ps := range byHops {
		exact := float64(w.hotPairs) * float64(len(ps)) / float64(total)
		quota[h] = int(exact)
		left -= quota[h]
		rems = append(rems, rem{h, exact - float64(quota[h])})
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; i < left; i++ {
		quota[rems[i].h]++
	}
	rng := rand.New(rand.NewSource(streamSeed(seed, streamHot)))
	out := make([][2]int, 0, w.hotPairs)
	for h, ps := range byHops {
		ps = append([][2]int(nil), ps...)
		rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		out = append(out, ps[:quota[h]]...)
	}
	return out
}

// generator produces one client's operations. Churn cycles depend on
// the daemon's answers (which flows were admitted, under which id), so
// the caller reports each admission with admitted.
type generator struct {
	churn bool
	rng   *rand.Rand
	pairs [][2]int
	live  []int // admitted churn flow ids, oldest first
	step  int   // position within a churn cycle
}

func newGenerator(w workload, pairs [][2]int, seed int64, stream int) *generator {
	return &generator{churn: w.churn, rng: rand.New(rand.NewSource(streamSeed(seed, stream))), pairs: pairs}
}

// demand draws an admission demand in [0.2, 1] Mbps.
func drawDemand(rng *rand.Rand) float64 { return 0.2 + 0.8*rng.Float64() }

func (g *generator) pair() (int, int) {
	p := g.pairs[g.rng.Intn(len(g.pairs))]
	return p[0], p[1]
}

// next returns the next operation.
func (g *generator) next() op {
	if !g.churn {
		s, d := g.pair()
		return op{kind: opQuery, src: s, dst: d}
	}
	for {
		step := g.step
		g.step = (g.step + 1) % 4
		switch step {
		case 0:
			s, d := g.pair()
			return op{kind: opAdmit, src: s, dst: d, demand: drawDemand(g.rng)}
		case 1:
			if numBackground+len(g.live) <= maxLive {
				continue
			}
			id := g.live[0]
			g.live = g.live[1:]
			return op{kind: opDelete, id: id}
		default:
			s, d := g.pair()
			return op{kind: opQuery, src: s, dst: d}
		}
	}
}

// admitted records that the last opAdmit was admitted under id.
func (g *generator) admitted(id int) { g.live = append(g.live, id) }

// probe generates the admission probe of the query workloads: seeded
// admissions over the workload's pairs, each torn down again by the
// caller, so the background is unchanged after every step.
type probe struct {
	rng   *rand.Rand
	pairs [][2]int
}

func newProbe(pairs [][2]int, seed int64) *probe {
	return &probe{rng: rand.New(rand.NewSource(streamSeed(seed, streamProbe))), pairs: pairs}
}

func (p *probe) next() op {
	pr := p.pairs[p.rng.Intn(len(p.pairs))]
	return op{kind: opAdmit, src: pr[0], dst: pr[1], demand: drawDemand(p.rng)}
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"salsa/internal/salsad"
	"salsa/internal/stream"
)

// workload is one cluster shape and traffic mix. Every workload runs
// CMS-SALSA (8-bit base counters, d = 4, sum merge) over a Zipf(1.0)
// stream on 2^20 keys, its agents ingesting through epoch(1, cms).
// BENCHMARK.json records why each one exists.
type workload struct {
	Name   string
	Agents int
	Width  int  // sketch row width, every tier
	Frame  int  // items an agent ingests before each timed push
	Tree   bool // agents → durable relay → durable root, both SnapshotEvery = 1
	Fill   int  // items per agent in the untimed fill frame
	// Rate is the nominal number of agent steps per second of --seconds:
	// about what a 2-core x86-64 box does, so a run lasts about --seconds.
	Rate float64
}

// A slow run is cut short at a step boundary, to stay within its time
// limit on a much slower machine or commit: a loop stops once it has
// taken stopAfter times its share of --seconds in wall time, and every
// loop and restore cycle stops once the process has run for budget.
const (
	stopAfter = 3
	budget    = 140 * time.Second
)

var workloads = []workload{
	{Name: "edge-ingest", Agents: 2, Width: 1 << 16, Frame: 1 << 16, Fill: 1 << 23, Rate: 10},
	{Name: "durable-tree", Agents: 32, Width: 1 << 14, Frame: 1 << 13, Tree: true, Fill: 1 << 18, Rate: 25},
}

// sizes are the knobs the smoke test shrinks; full runs use fullSizes.
type sizes struct {
	Pool     int // generated items, cycled through
	Queries  int // generated 16-item query sets, cycled through
	Setups   int // cluster builds per pass; setup_s is their median
	Restarts int // restore cycles per pass (at most one per round on the tree); restart_s is their median
}

// Every query asks for queryKeys items; every top asks for the top topK.
const (
	queryKeys = 16
	topK      = 10
)

var fullSizes = sizes{Pool: 1 << 21, Queries: 4096, Setups: 21, Restarts: 25}

// options configure one benchmark invocation.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	workdir string
	spans   string
	sizes   sizes
	log     io.Writer
	stop    time.Time // the process's budget runs out
}

// inputs are generated from the seed before any timing: the item pool
// the agents ingest (in order, wrapping around) and the query sets.
type inputs struct {
	items   []uint64
	queries [][]uint64
	paths   []string // "/v1/query?item=…" for each query set
}

func generate(o *options) *inputs {
	in := &inputs{items: stream.Zipf(o.sizes.Pool, 1<<20, 1.0, o.seed)}
	rng := rand.New(rand.NewSource(int64(o.seed) ^ 0x51ab))
	for range o.sizes.Queries {
		q := make([]uint64, queryKeys)
		for j := range q {
			q[j] = in.items[rng.Intn(len(in.items))]
		}
		in.queries = append(in.queries, q)
		in.paths = append(in.paths, queryPath(q))
	}
	return in
}

func queryPath(items []uint64) string {
	var b strings.Builder
	b.WriteString("/v1/query")
	for i, it := range items {
		if i == 0 {
			b.WriteByte('?')
		} else {
			b.WriteByte('&')
		}
		b.WriteString("item=")
		b.WriteString(strconv.FormatUint(it, 10))
	}
	return b.String()
}

// errNoSamples reports a timed phase too short to measure anything.
var errNoSamples = errors.New("timed phase produced no samples")

// pending is a frame's worth of items on its way to visibility: when its
// first item was ingested and how many items it carries.
type pending struct {
	first time.Duration
	n     int
}

// pass is one complete measurement on a fresh cluster: setups, warm-up,
// the timed phase with its restore cycles, and the correctness check.
type pass struct {
	w   *workload
	o   *options
	in  *inputs
	tr  *tracer
	ctx context.Context
	c   *cluster

	dir     string       // the pass's data dirs live under it
	pos     uint64       // items consumed from the cyclic pool
	qi      int          // next query set
	queried map[int]bool // query sets issued (the check re-asks them)

	t0    time.Time
	probe time.Duration // time spent in probes, excluded from the clock

	// What the timed phase measures.
	timing                 bool
	pushMS, visMS          []float64
	qMS, tMS               []float64
	itemsAcked             uint64
	awaitRelay, awaitQuery []pending         // frames not yet visible at the root
	persistBytes           uint64            // snapshot bytes written while timing, plus the first shutdown snapshot
	framesApplied          uint64            // data frames the root and relay applied while timing
	epochs                 map[string]uint64 // snapshot epoch mark per durable node
	e2e                    map[string]float64

	// What the rest of the pass measures.
	restartS, setupS []float64
	heapMiB          float64
	refItemsPerS     float64
	expect           []int64           // estimates of query set 0 before a restart
	relayCarry       salsad.AgentStats // upstream counters of replaced relay incarnations

	// Failure accounting and protocol counters.
	attempted, failed      uint64
	pushErrs, badResponses uint64
	failedRestores         uint64
	checked, badChecks     int
	counts                 map[string]float64

	// Traced passes only: the tee'd shadow relay (its aggregator half
	// times ApplyPush; off the tree it also cuts and ships), the store
	// the persist probes use, and the probed sizes.
	shadow                 *salsad.Relay
	probeStore             *salsad.Store
	envBytes, wireB, snapB []float64
}

func (p *pass) clock() time.Duration { return time.Since(p.t0) - p.probe }

func (p *pass) logf(format string, args ...any) {
	if p.o.log != nil {
		fmt.Fprintf(p.o.log, "perfbench: "+format+"\n", args...)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// measure runs one pass and returns it with its metrics filled in.
func measure(ctx context.Context, w *workload, o *options, in *inputs, tr *tracer) (*pass, error) {
	dir, err := os.MkdirTemp(o.workdir, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := &pass{w: w, o: o, in: in, tr: tr, ctx: ctx, dir: dir, queried: map[int]bool{}, epochs: map[string]uint64{}, t0: time.Now()}

	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	if p.c, err = p.build(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer p.c.close()
	if tr != nil {
		if err := p.startProbes(dir); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	if err := p.warmUp(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := p.timed(); err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	if err := p.quiesce(); err != nil {
		return nil, fmt.Errorf("quiesce: %w", err)
	}
	p.snapshotCounters()
	runtime.GC()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	p.heapMiB = (float64(ms1.HeapAlloc) - float64(ms0.HeapAlloc)) / (1 << 20)
	runtime.KeepAlive(p.c)

	if err := p.check(); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	p.account()
	return p, nil
}

// build builds one cluster under the pass's dir and adds its build time
// to setup_s's samples. The pass runs the first build; the timed loop
// runs the rest, spread over its length and thrown away, for the reason
// it spreads the restore cycles.
func (p *pass) build() (*cluster, error) {
	runtime.GC()
	sub := filepath.Join(p.dir, fmt.Sprintf("cluster-%d", len(p.setupS)))
	start := time.Now()
	c, err := newCluster(p.w, p.tr, sub, p.tr != nil)
	if err != nil {
		return nil, err
	}
	p.setupS = append(p.setupS, time.Since(start).Seconds())
	return c, nil
}

// extraBuild is one thrown-away build.
func (p *pass) extraBuild() error {
	c, err := p.build()
	if err != nil {
		return err
	}
	return c.remove()
}

// next returns the next n items of the cyclic pool, as views into it.
func (p *pass) next(n int) [][]uint64 {
	var out [][]uint64
	for n > 0 {
		at := int(p.pos % uint64(len(p.in.items)))
		take := min(n, len(p.in.items)-at)
		out = append(out, p.in.items[at:at+take])
		p.pos += uint64(take)
		n -= take
	}
	return out
}

// step ingests one frame into agent a and pushes it.
func (p *pass) step(a *benchAgent, n int) error {
	chunks := p.next(n)
	first := p.clock()
	h := p.tr.begin(spanIngest, a.id)
	for _, items := range chunks {
		for _, x := range items {
			a.ag.Ingest(x)
		}
	}
	p.tr.end(h)
	if p.timing {
		// The candidate monitor cmd/salsad's agent runs beside ingest;
		// the untimed fill skips it, so filling stays cheap.
		for _, items := range chunks {
			for _, x := range items {
				a.mon.Process(x)
			}
		}
	}

	start := p.clock()
	h = p.tr.begin(spanAgentPush, a.id)
	err := a.ag.PushOnce(p.ctx)
	p.tr.end(h)
	if p.timing {
		p.pushMS = append(p.pushMS, ms(p.clock()-start))
	}
	if err != nil {
		p.pushErrs++
		p.logf("push %s: %v", a.id, err)
		return nil
	}
	fr := pending{first: first, n: n}
	if p.w.Tree {
		p.awaitRelay = append(p.awaitRelay, fr)
	} else {
		p.ackedAtRoot(fr)
	}
	p.notePersists()
	if p.tr != nil {
		return p.probeFrame(a)
	}
	return nil
}

func (p *pass) ackedAtRoot(fr pending) {
	if p.timing {
		p.itemsAcked += uint64(fr.n)
		p.awaitQuery = append(p.awaitQuery, fr)
	}
}

// relayPush ships the relay's merged-table delta to the root.
func (p *pass) relayPush() {
	h := p.tr.begin(spanRelayPush, "relay-0")
	err := p.c.relay.relay.PushOnce(p.ctx)
	p.tr.end(h)
	if err != nil {
		p.pushErrs++
		p.logf("relay push: %v", err)
		return
	}
	for _, fr := range p.awaitRelay {
		p.ackedAtRoot(fr)
	}
	p.awaitRelay = p.awaitRelay[:0]
	p.notePersists()
}

// get issues one GET on the shared client and returns the body.
func (p *pass) get(url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(p.ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

type queryResp struct {
	Estimates map[string]int64 `json:"estimates"`
}

type topResp struct {
	Top []struct {
		Item  uint64 `json:"item"`
		Count int64  `json:"count"`
	} `json:"top"`
}

// queryAt asks base for the estimates of items.
func (p *pass) queryAt(base string, items []uint64) ([]int64, error) {
	body, err := p.get(base + queryPath(items))
	if err != nil {
		return nil, err
	}
	return parseEstimates(body, items)
}

func parseEstimates(body []byte, items []uint64) ([]int64, error) {
	var r queryResp
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	out := make([]int64, len(items))
	for i, it := range items {
		v, ok := r.Estimates[strconv.FormatUint(it, 10)]
		if !ok {
			return nil, fmt.Errorf("estimate for item %d missing", it)
		}
		out[i] = v
	}
	return out, nil
}

// query issues the next 16-item query at the root. Every frame the root
// acknowledged before it began is visible once it returns.
func (p *pass) query() error {
	i := p.qi % len(p.in.queries)
	p.qi++
	p.queried[i] = true
	p.attempted++
	start := p.clock()
	h := p.tr.begin(spanQueryRTT, "q"+strconv.Itoa(p.qi))
	body, err := p.get(p.c.root.url() + p.in.paths[i])
	if err == nil {
		_, err = parseEstimates(body, p.in.queries[i])
	}
	p.tr.end(h)
	end := p.clock()
	if err != nil {
		p.badResponses++
		p.logf("query: %v", err)
		return nil
	}
	if p.timing {
		p.qMS = append(p.qMS, ms(end-start))
		for _, fr := range p.awaitQuery {
			p.visMS = append(p.visMS, ms(end-fr.first))
		}
	}
	p.awaitQuery = p.awaitQuery[:0]
	if p.tr != nil {
		return p.probeQuery(i)
	}
	return nil
}

// top issues GET /v1/top?k=10 at the root.
func (p *pass) top() {
	p.attempted++
	start := p.clock()
	h := p.tr.begin(spanTopRTT, "t"+strconv.Itoa(p.qi))
	body, err := p.get(fmt.Sprintf("%s/v1/top?k=%d", p.c.root.url(), topK))
	if err == nil {
		var r topResp
		err = json.Unmarshal(body, &r)
	}
	p.tr.end(h)
	if err != nil {
		p.badResponses++
		p.logf("top: %v", err)
		return
	}
	if p.timing {
		p.tMS = append(p.tMS, ms(p.clock()-start))
	}
}

// warmUp pushes one untimed fill frame per agent, so the timed phase
// starts against a filled table
// and open connections, then runs a quarter of the timed phase's steps
// untimed, so it starts with the machine already under its load.
func (p *pass) warmUp() error {
	for _, a := range p.c.agents {
		if err := p.step(a, p.w.Fill); err != nil {
			return err
		}
	}
	if p.w.Tree {
		p.relayPush()
	}
	if err := p.query(); err != nil {
		return err
	}
	p.top()
	p.awaitQuery = p.awaitQuery[:0]
	runtime.GC()
	return p.loop(p.steps() / 4)
}

// steps is the timed phase's length: --seconds times the workload's
// nominal step rate.
func (p *pass) steps() int {
	return max(1, int(math.Round(p.o.seconds*p.w.Rate)))
}

// loop runs steps closed-loop steps. Off the tree, each step is one
// agent's frame, agents in round-robin, then one query and one top. On
// the tree, each agent step is followed by a query and a top at the
// root, and each round of all agents ends with the relay's upstream
// push and one more query and top. The timed loop also runs the restore
// cycles and the extra cluster builds. A loop that takes far longer than --seconds stops early. The
// tree runs whole rounds.
func (p *pass) loop(steps int) error {
	n := len(p.c.agents)
	if p.w.Tree {
		steps = (steps + n - 1) / n * n
	}
	// The timed loop spreads the restore cycles (at round boundaries on
	// the tree) and the extra cluster builds over its length, off the
	// clock: each takes milliseconds, and back to back they would all
	// sample the same second of a machine whose speed drifts from second
	// to second.
	restartEvery, buildEvery := 0, 0
	if p.timing {
		restartEvery = max(1, steps/p.o.sizes.Restarts)
		if p.w.Tree {
			restartEvery = (restartEvery + n - 1) / n * n
		}
		buildEvery = max(1, steps/max(1, p.o.sizes.Setups-1))
	}
	share := p.o.seconds * float64(steps) / float64(p.steps())
	deadline := time.Now().Add(time.Duration(stopAfter * share * float64(time.Second)))
	if p.o.stop.Before(deadline) {
		deadline = p.o.stop
	}
	for k := 0; k < steps; k++ {
		if err := p.step(p.c.agents[k%n], p.w.Frame); err != nil {
			return err
		}
		if err := p.query(); err != nil {
			return err
		}
		p.top()
		if p.w.Tree && k%n == n-1 {
			p.relayPush()
			if p.tr != nil {
				if err := p.probePersist(); err != nil {
					return err
				}
			}
			if err := p.query(); err != nil {
				return err
			}
			p.top()
		}
		// Collect between steps, off the clock: every node shares this
		// process's heap, and a collection landing inside a timed call
		// would put a random tenth of them in the p90.
		_ = p.untimed(func() error { runtime.GC(); return nil })
		if buildEvery > 0 && (k+1)%buildEvery == 0 && len(p.setupS) < p.o.sizes.Setups {
			if err := p.untimed(p.extraBuild); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
		}
		if restartEvery > 0 && (k+1)%restartEvery == 0 {
			if err := p.untimed(p.restart); err != nil {
				return fmt.Errorf("restart: %w", err)
			}
		}
		if time.Now().After(deadline) && (!p.w.Tree || k%n == n-1) {
			p.logf("stopping after %d of %d steps: out of time", k+1, steps)
			break
		}
	}
	return nil
}

// timed runs the timed phase: a fixed amount of work, steps(), so that
// every commit measures the same sequence of table states (query and
// push costs grow with the table's volume, so a time-bounded loop would
// tie them to speed). Garbage is collected between steps, off the clock,
// so the latency metrics leave out collection pauses; live_heap_mb
// reports the memory side.
func (p *pass) timed() error {
	wire0 := p.wireBytes()
	pos0 := p.pos
	root0, relay0 := p.aggStats()
	for _, n := range p.c.nodes() {
		p.epochs[n.name] = n.agg.Store().Epoch()
	}
	p.timing = true
	if p.tr != nil {
		p.tr.setActive(true)
		defer p.tr.setActive(false)
	}
	start := p.clock()
	if err := p.loop(p.steps()); err != nil {
		return err
	}
	p.timing = false
	elapsed := p.clock() - start
	if len(p.pushMS) == 0 || len(p.qMS) == 0 || len(p.tMS) == 0 || len(p.visMS) == 0 || p.itemsAcked == 0 {
		return errNoSamples
	}

	root, relay := p.aggStats()
	p.framesApplied = root.Applied - root0.Applied + relay.Applied - relay0.Applied
	items := p.pos - pos0
	p.e2e = map[string]float64{
		"items_per_s":         float64(p.itemsAcked) / elapsed.Seconds(),
		"push_p50_ms":         quantile(p.pushMS, 0.5),
		"push_p90_ms":         quantile(p.pushMS, 0.9),
		"visible_p50_ms":      quantile(p.visMS, 0.5),
		"visible_p90_ms":      quantile(p.visMS, 0.9),
		"query_p50_ms":        quantile(p.qMS, 0.5),
		"query_p90_ms":        quantile(p.qMS, 0.9),
		"top_p50_ms":          quantile(p.tMS, 0.5),
		"top_p90_ms":          quantile(p.tMS, 0.9),
		"wire_bytes_per_item": float64(p.wireBytes()-wire0) / float64(items),
	}
	p.logf("%s: timed %.2fs, %d pushes, %d queries, %d tops, %d visible, %d items acked",
		p.w.Name, elapsed.Seconds(), len(p.pushMS), len(p.qMS), len(p.tMS), len(p.visMS), p.itemsAcked)
	return nil
}

// endToEnd returns the pass's end-to-end metrics.
func (p *pass) endToEnd() map[string]float64 {
	out := map[string]float64{
		"restart_s":               quantile(p.restartS, 0.5),
		"persist_bytes_per_frame": float64(p.persistBytes) / float64(p.framesApplied),
		"live_heap_mb":            p.heapMiB,
		"setup_s":                 quantile(p.setupS, 0.5),
	}
	for k, v := range p.e2e {
		out[k] = v
	}
	return out
}

// layerValues returns the per-layer metrics that are not span medians.
func (p *pass) layerValues() map[string]float64 {
	out := map[string]float64{
		"salsa.reference_items_per_s":    p.refItemsPerS,
		"salsa.envelope_bytes_per_frame": quantile(p.envBytes, 0.5),
		"salsad.wire.bytes_per_frame":    quantile(p.wireB, 0.5),
		"salsad.persist.snapshot_bytes":  quantile(p.snapB, 0.5),
	}
	for k, v := range p.counts {
		out[k] = v
	}
	return out
}

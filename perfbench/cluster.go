package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"salsa"
	"salsa/internal/salsad"
)

// sketchSeed is the hash seed every tier shares (a deployment constant,
// like cmd/salsad's -seed); the run's --seed drives the data only.
const sketchSeed = 0x5a15a

// coreOptions is CMS-SALSA with 8-bit base counters, d = 4 and sum
// merge, at the given row width.
func coreOptions(width int) salsa.Options {
	return salsa.Options{Width: width, Depth: 4, Mode: salsa.ModeSALSA, CounterBits: 8, Merge: salsa.MergeSum, Seed: sketchSeed}
}

// never is a SnapshotEvery no run reaches: the node only snapshots when
// the benchmark shuts it down, as cmd/salsad's server roles do.
const never = 1 << 30

// node is one aggregation server: a root aggregator or a relay, behind a
// real net/http server on 127.0.0.1.
type node struct {
	name  string
	agg   *salsad.Aggregator
	relay *salsad.Relay // nil for the root
	srv   *httptest.Server
	dir   string
	every int
}

func (n *node) url() string { return n.srv.URL }

// benchTransport is the first-tier and upstream salsad.Transport: the
// production HTTPTransport, wrapped to record a round-trip span and, on
// traced runs, keep the last delivered frame for the probes.
type benchTransport struct {
	http *salsad.HTTPTransport
	tr   *tracer
	name string
	keep bool
	last *salsad.Push
}

func (t *benchTransport) Push(ctx context.Context, p *salsad.Push) (*salsad.Ack, error) {
	h := t.tr.begin(t.name, reqID(p.Agent, p.Seq))
	ack, err := t.http.Push(ctx, p)
	t.tr.end(h)
	if t.keep {
		t.last = p
	}
	return ack, err
}

func (t *benchTransport) Resume(ctx context.Context, agent string) (*salsad.ResumeInfo, error) {
	return t.http.Resume(ctx, agent)
}

// benchAgent is one edge agent with the candidate monitor cmd/salsad's
// agent runs beside it.
type benchAgent struct {
	id  string
	ag  *salsad.Agent
	mon *salsa.Monitor
	tx  *benchTransport

	// mirror is the traced run's copy of the agent's acknowledged state
	// (the sum of its frames), the state the probes act on.
	mirror salsa.Sketch
}

// cluster is the loopback tree: agents → optional relay → root.
type cluster struct {
	w      *workload
	tr     *tracer
	dir    string
	client *http.Client
	non2xx atomic.Uint64

	root   *node
	relay  *node
	agents []*benchAgent
}

// newClient returns the run's one HTTP client. The load loop uses it from a
// single goroutine, so each server sees at most one keep-alive
// connection.
func newClient(tr *tracer) *http.Client {
	base := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	var rt http.RoundTripper = base
	if tr != nil {
		rt = &spanRoundTripper{base: base, tr: tr}
	}
	return &http.Client{Timeout: time.Minute, Transport: rt}
}

// newCluster builds the servers, aggregators, relay and agents of one
// workload under dir. This is what setup_s times.
func newCluster(w *workload, tr *tracer, dir string, keepFrames bool) (*cluster, error) {
	c := &cluster{w: w, tr: tr, dir: dir, client: newClient(tr)}
	spec := salsa.CountMinOf(coreOptions(w.Width))
	var err error
	rootEvery := never
	if w.Tree {
		rootEvery = 1
	}
	if c.root, err = c.startRoot(spec, rootEvery); err != nil {
		c.close()
		return nil, err
	}
	first := c.root
	if w.Tree {
		if c.relay, err = c.startRelay(spec, 1); err != nil {
			c.close()
			return nil, err
		}
		first = c.relay
	}
	agentSpec := salsa.EpochShardedBy(spec, 1)
	for i := range w.Agents {
		id := fmt.Sprintf("edge-%03d", i)
		mon := salsa.MustBuild(salsa.MonitorOf(salsa.Options{Width: 1 << 10, Seed: sketchSeed}, 64)).(*salsa.Monitor)
		tx := &benchTransport{http: &salsad.HTTPTransport{Base: first.url(), Client: c.client}, tr: tr, name: spanPushRTT, keep: keepFrames}
		ag, err := salsad.NewAgent(salsad.AgentConfig{
			ID:         id,
			Spec:       agentSpec,
			Transport:  tx,
			JitterSeed: uint64(i + 1),
			Candidates: candidates(mon),
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.agents = append(c.agents, &benchAgent{id: id, ag: ag, mon: mon, tx: tx})
	}
	return c, nil
}

// candidates is cmd/salsad's candidate hook: the local monitor's top.
func candidates(mon *salsa.Monitor) func() []uint64 {
	return func() []uint64 {
		top := mon.Top()
		items := make([]uint64, len(top))
		for i, e := range top {
			items[i] = e.Item
		}
		return items
	}
}

func (c *cluster) serve(n *node, pushSpan string) {
	n.srv = httptest.NewServer(&serverSpans{next: salsad.Handler(n.agg), tr: c.tr, push: pushSpan, non2xx: &c.non2xx})
}

// startRoot builds the root aggregator on its data dir (restoring
// whatever snapshot is there) and starts its server.
func (c *cluster) startRoot(spec salsa.Spec, every int) (*node, error) {
	n := &node{name: "root", dir: filepath.Join(c.dir, "root"), every: every}
	agg, err := salsad.NewAggregator(salsad.AggregatorConfig{Spec: spec, DataDir: n.dir, SnapshotEvery: every})
	if err != nil {
		return nil, err
	}
	n.agg = agg
	push := spanPushServer
	if c.w.Tree {
		push = spanUpstreamServer
	}
	c.serve(n, push)
	return n, nil
}

// startRelay builds the relay on its data dir, pushing to the current
// root, and starts its server.
func (c *cluster) startRelay(spec salsa.Spec, every int) (*node, error) {
	n := &node{name: "relay", dir: filepath.Join(c.dir, "relay"), every: every}
	up := &benchTransport{http: &salsad.HTTPTransport{Base: c.root.url(), Client: c.client}, tr: c.tr, name: spanUpstreamRTT}
	r, err := salsad.NewRelay(salsad.RelayConfig{
		ID: "relay-0", Spec: spec, Upstream: up, Generation: 1,
		DataDir: n.dir, SnapshotEvery: every, JitterSeed: 1,
	})
	if err != nil {
		return nil, err
	}
	n.relay, n.agg = r, r.Agg()
	c.serve(n, spanPushServer)
	return n, nil
}

// nodes returns the aggregation nodes, relay first.
func (c *cluster) nodes() []*node {
	if c.relay != nil {
		return []*node{c.relay, c.root}
	}
	return []*node{c.root}
}

// close stops every server and waits for their handlers to return.
func (c *cluster) close() {
	for _, n := range []*node{c.relay, c.root} {
		if n != nil && n.srv != nil {
			n.srv.Close()
			n.srv = nil
		}
	}
	c.client.CloseIdleConnections()
}

// remove closes the cluster and deletes its data dirs.
func (c *cluster) remove() error {
	c.close()
	return os.RemoveAll(c.dir)
}

package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"salsa"
	"salsa/internal/salsad"
)

// wireBytes sums AgentStats.WireBytes over the agents and the relay.
func (p *pass) wireBytes() uint64 {
	var n uint64
	for _, a := range p.c.agents {
		n += a.ag.Stats().WireBytes
	}
	if p.c.relay != nil {
		n += p.relayStats().WireBytes
	}
	return n
}

// relayStats returns the relay's upstream delivery counters summed over
// its incarnations: a restored relay starts them from zero.
func (p *pass) relayStats() salsad.AgentStats {
	s, c := p.c.relay.relay.Stats(), p.relayCarry
	s.Attempts += c.Attempts
	s.Retries += c.Retries
	s.Resyncs += c.Resyncs
	s.WireBytes += c.WireBytes
	return s
}

// aggStats returns the root's and (zero without one) the relay's
// protocol counters.
func (p *pass) aggStats() (root, relay salsad.AggregatorStats) {
	root = p.c.root.agg.Stats()
	if p.c.relay != nil {
		relay = p.c.relay.agg.Stats()
	}
	return root, relay
}

// quiesce makes sure everything ingested has reached the root: each
// step pushes what it ingested, so this only retries after a failure.
func (p *pass) quiesce() error {
	for range 3 {
		synced := true
		for _, a := range p.c.agents {
			if !a.ag.Synced() {
				synced = false
				if err := a.ag.PushOnce(p.ctx); err != nil {
					p.pushErrs++
				}
			}
		}
		if p.c.relay != nil && !p.c.relay.relay.Synced() {
			synced = false
			p.relayPush()
		}
		if synced {
			return nil
		}
	}
	return fmt.Errorf("cluster did not quiesce")
}

// check compares the root with a sequential reference sketch fed every
// item the agents ingested, in order: for every item any query asked
// about and every top-k entry, the root's estimate must equal the
// reference's (internal/faulttest's estimate-exact criterion) and be at
// least the exact count. It also times the reference's ingest as the
// single-threaded baseline.
func (p *pass) check() error {
	built, err := salsa.Build(salsa.CountMinOf(coreOptions(p.w.Width)))
	if err != nil {
		return err
	}
	ref := built.(*salsa.CountMin)
	pool := p.in.items
	cycles, rest := p.pos/uint64(len(pool)), int(p.pos%uint64(len(pool)))
	start := time.Now()
	for range cycles {
		for _, x := range pool {
			ref.Update(x, 1)
		}
	}
	for _, x := range pool[:rest] {
		ref.Update(x, 1)
	}
	p.refItemsPerS = float64(p.pos) / time.Since(start).Seconds()

	want := map[uint64]bool{}
	var items []uint64
	for i := range p.in.queries {
		if !p.queried[i] {
			continue
		}
		for _, it := range p.in.queries[i] {
			if !want[it] {
				want[it] = true
				items = append(items, it)
			}
		}
	}
	body, err := p.get(fmt.Sprintf("%s/v1/top?k=%d", p.c.root.url(), topK))
	if err != nil {
		return err
	}
	var top topResp
	if err := json.Unmarshal(body, &top); err != nil {
		return err
	}
	if len(top.Top) == 0 {
		p.badChecks++
		p.logf("check: empty top-k")
	}
	for _, e := range top.Top {
		want[e.Item] = true
	}
	exact := exactCounts(pool, want, cycles, rest)

	const chunk = 64
	for lo := 0; lo < len(items); lo += chunk {
		batch := items[lo:min(lo+chunk, len(items))]
		got, err := p.queryAt(p.c.root.url(), batch)
		if err != nil {
			return err
		}
		for i, it := range batch {
			p.verify("query", it, got[i], int64(ref.Query(it)), exact[it])
		}
	}
	for _, e := range top.Top {
		p.verify("top", e.Item, e.Count, int64(ref.Query(e.Item)), exact[e.Item])
	}
	p.logf("check: %d items and %d top-k entries, %d mismatches", len(items), len(top.Top), p.badChecks)
	return nil
}

func (p *pass) verify(kind string, item uint64, got, ref, exact int64) {
	p.checked++
	if got != ref || got < exact {
		p.badChecks++
		p.logf("check %s item %d: root %d, reference %d, exact %d", kind, item, got, ref, exact)
	}
}

// exactCounts counts each wanted item in the consumed stream: the pool
// cycles times, then its first rest items.
func exactCounts(pool []uint64, want map[uint64]bool, cycles uint64, rest int) map[uint64]int64 {
	full, head := map[uint64]int64{}, map[uint64]int64{}
	for i, x := range pool {
		if want[x] {
			full[x]++
			if i < rest {
				head[x]++
			}
		}
	}
	out := make(map[uint64]int64, len(want))
	for x := range want {
		out[x] = int64(cycles)*full[x] + head[x]
	}
	return out
}

// restart runs one restore cycle: it shuts the servers down after a
// final snapshot, as cmd/salsad does on SIGTERM, then times NewAggregator
// (and NewRelay) on the data dirs until the root (and the relay) answer
// query set 0 as the root did before. The agents then push to the new
// servers. The first cycle's snapshots count in persist_bytes_per_frame;
// later ones only move the epoch marks.
func (p *pass) restart() error {
	spec := salsa.CountMinOf(coreOptions(p.w.Width))
	k := len(p.restartS) + int(p.failedRestores)
	// The cycle's own queries stay out of the trace; its snapshot probes
	// and the restore span go in.
	tracing := p.tr != nil && p.tr.active.Load()
	p.tr.setActive(false)
	defer p.tr.setActive(tracing)
	var err error
	if p.expect, err = p.queryAt(p.c.root.url(), p.in.queries[0]); err != nil {
		return err
	}
	for _, n := range p.c.nodes() {
		if n.relay != nil {
			_, err = n.relay.Persist()
		} else {
			_, err = n.agg.Persist()
		}
		if err != nil {
			return err
		}
		if bytes := p.newSnapshots(n); k == 0 {
			p.persistBytes += bytes
		}
	}
	p.tr.setActive(tracing)
	if p.tr != nil {
		if err := p.probePersist(); err != nil {
			return err
		}
	}
	if p.c.relay != nil {
		p.relayCarry = p.relayStats()
	}
	p.c.close()
	runtime.GC()

	p.attempted++
	start := time.Now()
	h := p.tr.begin(spanRestore, fmt.Sprintf("restart-%d", k))
	root, err := p.c.startRoot(spec, p.c.root.every)
	if err != nil {
		return err
	}
	p.c.root = root
	if p.c.relay != nil {
		relay, err := p.c.startRelay(spec, p.c.relay.every)
		if err != nil {
			return err
		}
		p.c.relay = relay
	}
	p.tr.end(h)
	p.tr.setActive(false)
	if !p.serving() {
		p.failedRestores++
		p.logf("restart %d: no correct answer", k)
	} else {
		p.restartS = append(p.restartS, time.Since(start).Seconds())
	}
	for _, n := range p.c.nodes() {
		if err := n.agg.RestoreError(); err != nil {
			p.failedRestores++
			p.logf("restart %d: %v", k, err)
		}
		p.epochs[n.name] = n.agg.Store().Epoch()
	}
	first := p.c.nodes()[0].url()
	for _, a := range p.c.agents {
		a.tx.http.Base = first
	}
	return nil
}

// serving polls every node until it answers query set 0 as the root did
// before the restart, for at most a few seconds.
func (p *pass) serving() bool {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for _, n := range p.c.nodes() {
			got, err := p.queryAt(n.url(), p.in.queries[0])
			if err != nil || !equal(got, p.expect) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

func equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// snapshotCounters records the protocol counters once the timed phase
// has quiesced, before the restarts replace the nodes.
func (p *pass) snapshotCounters() {
	var up salsad.AgentStats
	for _, a := range p.c.agents {
		s := a.ag.Stats()
		up.Attempts += s.Attempts
		up.Retries += s.Retries
		up.Resyncs += s.Resyncs
	}
	if p.c.relay != nil {
		s := p.relayStats()
		up.Attempts += s.Attempts
		up.Retries += s.Retries
		up.Resyncs += s.Resyncs
	}
	root, relay := p.aggStats()
	p.attempted += up.Attempts
	p.counts = map[string]float64{
		"salsad.agent.retries":         float64(up.Retries),
		"salsad.agent.resyncs":         float64(up.Resyncs),
		"salsad.aggregator.applied":    float64(root.Applied + relay.Applied),
		"salsad.aggregator.duplicates": float64(root.Duplicates + relay.Duplicates),
		"salsad.aggregator.rejected":   float64(root.Rejected + relay.Rejected),
		"salsad.aggregator.persists":   float64(root.Persists + relay.Persists),
	}
	p.failed += up.Retries + up.Resyncs + root.Rejected + relay.Rejected
}

// account totals the failures. Attempts are push deliveries including
// retries, queries, tops and restores; failures are PushOnce errors,
// retries, resyncs, rejected frames, non-2xx responses, unusable
// responses, failed restores and failed checks.
func (p *pass) account() {
	non2xx := p.c.non2xx.Load()
	p.counts["salsad.http.non2xx"] = float64(non2xx)
	p.failed += p.pushErrs + non2xx + p.badResponses + p.failedRestores + uint64(p.badChecks)
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"salsa"
	"salsa/internal/salsad"
)

// The traced run's probes time single layers on the current state,
// outside the load loop's clock, so the live path they sit beside is timed
// as it would be without them (apart from the span bookkeeping itself,
// which the trace.overhead metrics report).

// directTransport delivers a probe relay's frames to an in-process
// aggregator through the wire codec, with no HTTP in between.
type directTransport struct {
	agg *salsad.Aggregator
	tr  *tracer
}

func (t *directTransport) Push(_ context.Context, p *salsad.Push) (*salsad.Ack, error) {
	h := t.tr.begin(spanUpstreamRTT, reqID(p.Agent, p.Seq))
	defer t.tr.end(h)
	enc, err := p.Encode()
	if err != nil {
		return nil, err
	}
	dec, err := salsad.DecodePush(enc, 0)
	if err != nil {
		return nil, err
	}
	return t.agg.ApplyPush(dec)
}

func (t *directTransport) Resume(_ context.Context, agent string) (*salsad.ResumeInfo, error) {
	info := t.agg.Resume(agent)
	return &info, nil
}

// startProbes builds the shadow relay every first-tier frame is tee'd
// into (its aggregator half times ApplyPush; off the tree, it also cuts
// and ships its table each step, timing the relay layer over this
// workload's table) and the store persist probes use.
func (p *pass) startProbes(dir string) error {
	spec := salsa.CountMinOf(coreOptions(p.w.Width))
	root, err := salsad.NewAggregator(salsad.AggregatorConfig{Spec: spec})
	if err != nil {
		return err
	}
	relay, err := salsad.NewRelay(salsad.RelayConfig{
		ID: "probe-relay", Spec: spec, Upstream: &directTransport{agg: root, tr: p.tr},
		Generation: 1, JitterSeed: 1,
	})
	if err != nil {
		return err
	}
	store, err := salsad.OpenStore(filepath.Join(dir, "probe-store"))
	if err != nil {
		return err
	}
	p.shadow, p.probeStore = relay, store
	return nil
}

// timeProbe runs f under a span and keeps its time off the load loop's clock.
func (p *pass) timeProbe(name, req string, f func() error) error {
	start := time.Now()
	h := p.tr.begin(name, req)
	err := f()
	p.tr.end(h)
	p.probe += time.Since(start)
	if err != nil {
		return fmt.Errorf("%s probe: %w", name, err)
	}
	return nil
}

// untimed runs bookkeeping off the load loop's clock without a span.
func (p *pass) untimed(f func() error) error {
	start := time.Now()
	err := f()
	p.probe += time.Since(start)
	return err
}

// probeFrame times the layers the frame agent a just delivered went
// through: wire encode and decode, envelope unmarshal, the shadow
// aggregator's apply, and, on the agent's acknowledged state, the
// merge, marshal and subtract kernels a cut and a fold run.
func (p *pass) probeFrame(a *benchAgent) error {
	fr := a.tx.last
	if fr == nil || fr.Heartbeat() {
		return nil
	}
	req := reqID(a.id, fr.Seq)
	var enc []byte
	var dec *salsad.Push
	var delta salsa.Sketch
	steps := []struct {
		span string
		f    func() error
	}{
		{spanEncode, func() (err error) { enc, err = fr.Encode(); return }},
		{spanDecode, func() (err error) { dec, err = salsad.DecodePush(enc, 0); return }},
		{spanApply, func() error { _, err := p.shadow.Agg().ApplyPush(dec); return err }},
		{spanUnmarshal, func() error {
			s, err := salsa.Unmarshal(fr.Envelope)
			if err == nil {
				delta, err = salsa.DeltaCore(s)
			}
			return err
		}},
	}
	for _, s := range steps {
		if err := p.timeProbe(s.span, req, s.f); err != nil {
			return err
		}
	}
	if p.timing {
		p.wireB = append(p.wireB, float64(len(enc)))
		p.envBytes = append(p.envBytes, float64(len(fr.Envelope)))
	}
	if a.mirror == nil {
		return p.untimed(func() (err error) { a.mirror, err = salsa.CloneSketch(delta); return })
	}
	if err := p.timeProbe(spanMerge, req, func() error { return salsa.MergeInto(a.mirror, delta) }); err != nil {
		return err
	}
	var blob []byte
	if err := p.timeProbe(spanMarshal, req, func() (err error) { blob, err = salsa.Marshal(a.mirror); return }); err != nil {
		return err
	}
	var state salsa.Sketch
	if err := p.untimed(func() (err error) { state, err = salsa.Unmarshal(blob); return }); err != nil {
		return err
	}
	if err := p.timeProbe(spanSubtract, req, func() error { return salsa.SubtractInto(state, delta) }); err != nil {
		return err
	}
	if p.w.Tree {
		return nil
	}
	return p.timeProbe(spanRelayPush, "probe-relay", func() error { return p.shadow.PushOnce(p.ctx) })
}

// probeQuery asks the root aggregator directly, without HTTP, for what
// query set i and the top just asked over HTTP.
func (p *pass) probeQuery(i int) error {
	root := p.c.root.agg
	if err := p.timeProbe(spanAggQuery, "q", func() error { _, err := root.Query(p.in.queries[i]); return err }); err != nil {
		return err
	}
	return p.timeProbe(spanAggTop, "t", func() error { _, err := root.Top(topK); return err })
}

// probePersist times a snapshot cycle of every durable node's current
// table into the probe store: marshal the state, save it, load it back.
func (p *pass) probePersist() error {
	for _, n := range p.c.nodes() {
		var state []byte
		if err := p.timeProbe(spanMarshalState, n.name, func() (err error) { state, err = n.agg.MarshalState(); return }); err != nil {
			return err
		}
		p.snapB = append(p.snapB, float64(len(state)))
		if err := p.timeProbe(spanSave, n.name, func() error { _, err := p.probeStore.Save(state); return err }); err != nil {
			return err
		}
		if err := p.timeProbe(spanLoad, n.name, func() error { _, err := p.probeStore.LoadLatest(); return err }); err != nil {
			return err
		}
	}
	return nil
}

// notePersists adds up the snapshot bytes the durable nodes wrote since
// the last call: every new epoch in a node's store counts at the size of
// its newest snapshot file.
func (p *pass) notePersists() {
	if !p.timing {
		return
	}
	_ = p.untimed(func() error {
		for _, n := range p.c.nodes() {
			p.persistBytes += p.newSnapshots(n)
		}
		return nil
	})
}

// newSnapshots returns the bytes of the snapshots node n wrote since the
// last call and moves its epoch mark.
func (p *pass) newSnapshots(n *node) uint64 {
	store := n.agg.Store()
	e, last := store.Epoch(), p.epochs[n.name]
	if e <= last {
		return 0
	}
	p.epochs[n.name] = e
	fi, err := os.Stat(filepath.Join(store.Dir(), salsad.SnapshotFileName(e)))
	if err != nil {
		return 0
	}
	return (e - last) * uint64(fi.Size())
}

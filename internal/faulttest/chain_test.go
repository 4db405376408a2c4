package faulttest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"salsa"
	"salsa/internal/salsad"
)

// Snapshot chains under audit and under attack. A durable node persists
// a checkpoint and then records of what changed; these scenarios check
// that a chain restores to exactly the state it was written from, and
// that a hole anywhere in it degrades to "restore up to the hole, resync
// the rest", never to wrong answers.

// auditedNode is one durable node the disk audit watches.
type auditedNode struct {
	name  string
	epoch func() uint64          // the live node's newest snapshot epoch
	live  func() ([]byte, error) // the live node's MarshalState
	fresh func() ([]byte, error) // MarshalState of a fresh node restored from disk
	dir   string
}

// diskAudit restores every durable node's chain into a fresh node at
// every point it wrote a snapshot, and demands the live node's
// MarshalState bytes: checkpoint + records must equal the state they
// were captured from.
type diskAudit struct {
	t     *testing.T
	nodes []auditedNode
	last  []uint64
	// checks counts audited snapshots; chained counts those whose
	// restore replayed at least one record.
	checks, chained int
}

func (d *diskAudit) add(n auditedNode) {
	d.nodes = append(d.nodes, n)
	d.last = append(d.last, n.epoch())
}

func (d *diskAudit) tap() {
	for i, n := range d.nodes {
		e := n.epoch()
		if e == d.last[i] {
			continue
		}
		d.last[i] = e
		want, err := n.live()
		if err != nil {
			d.t.Fatal(err)
		}
		got, err := n.fresh()
		if err != nil {
			d.t.Fatalf("%s epoch %d: %v", n.name, e, err)
		}
		if !bytes.Equal(got, want) {
			d.t.Fatalf("%s epoch %d: the restored chain (%d bytes) differs from the live state (%d bytes)",
				n.name, e, len(got), len(want))
		}
		_, records, err := SnapshotChain(n.dir)
		if err != nil {
			d.t.Fatal(err)
		}
		d.checks++
		if len(records) > 0 {
			d.chained++
		}
	}
}

// restoredAggregator restores a fresh aggregator from dir and returns its
// state, failing on any skipped file: the audited chains are intact.
func restoredAggregator(spec salsa.Spec, dir string) ([]byte, error) {
	agg, err := salsad.NewAggregator(salsad.AggregatorConfig{Spec: spec, DataDir: dir})
	if err != nil {
		return nil, err
	}
	if err := restoreClean(agg); err != nil {
		return nil, err
	}
	return agg.MarshalState()
}

// restoredRelay is restoredAggregator for a relay; its upstream is never
// used.
func restoredRelay(spec salsa.Spec, id, dir string, up salsad.Transport) ([]byte, error) {
	relay, err := salsad.NewRelay(salsad.RelayConfig{ID: id, Spec: spec, Upstream: up, DataDir: dir, JitterSeed: 1})
	if err != nil {
		return nil, err
	}
	if err := restoreClean(relay.Agg()); err != nil {
		return nil, err
	}
	return relay.MarshalState()
}

func restoreClean(agg *salsad.Aggregator) error {
	if err := agg.RestoreError(); err != nil {
		return err
	}
	if skipped := agg.RestoreSkipped(); len(skipped) > 0 {
		return fmt.Errorf("intact chain skipped %d files: %w", len(skipped), skipped[0])
	}
	return nil
}

// auditCluster taps every persist point of a durable cluster.
func auditCluster(t *testing.T, c *Cluster) *diskAudit {
	d := &diskAudit{t: t}
	d.add(auditedNode{
		name:  "aggregator",
		dir:   c.DataDir,
		epoch: func() uint64 { return c.Agg.Store().Epoch() },
		live:  func() ([]byte, error) { return c.Agg.MarshalState() },
		fresh: func() ([]byte, error) { return restoredAggregator(c.Spec, c.DataDir) },
	})
	c.Transport.Tap = d.tap
	return d
}

// auditTree taps every persist point of a durable tree: the root's, and
// each relay's on its downlink and before each uplink push.
func auditTree(t *testing.T, tr *Tree) *diskAudit {
	d := &diskAudit{t: t}
	rootDir := filepath.Join(tr.opt.DataDir, "root")
	d.add(auditedNode{
		name:  "root",
		dir:   rootDir,
		epoch: func() uint64 { return tr.Root.Store().Epoch() },
		live:  func() ([]byte, error) { return tr.Root.MarshalState() },
		fresh: func() ([]byte, error) { return restoredAggregator(tr.Spec, rootDir) },
	})
	for _, node := range tr.Relays {
		d.add(auditedNode{
			name:  node.ID,
			dir:   node.dataDir,
			epoch: func() uint64 { return node.Relay.Agg().Store().Epoch() },
			live:  func() ([]byte, error) { return node.Relay.MarshalState() },
			fresh: func() ([]byte, error) { return restoredRelay(tr.Spec, node.ID, node.dataDir, node.Up) },
		})
		node.Sub.Transport.Tap = d.tap
		node.Up.Tap = d.tap
	}
	return d
}

// TestDurableChainDifferential runs the durable single-tier schedules —
// lossy, duplicating, reordering networks, member and aggregator crashes,
// per-frame and batched persistence — and at every snapshot restores the
// chain into a fresh aggregator, which must marshal byte-identically to
// the live one.
func TestDurableChainDifferential(t *testing.T) {
	for _, every := range []int{1, 3} {
		for _, seed := range seeds {
			t.Logf("seed=%d every=%d", seed, every)
			c, err := NewDurableCluster(cmsFixedSpec(), cmsFixedSpec(), traces(5, 3000, seed),
				Plan{Seed: seed, Drop: 0.1, Dup: 0.1, AckLoss: 0.1, Delay: 0.1}, t.TempDir(), every)
			if err != nil {
				t.Fatal(err)
			}
			audit := auditCluster(t, c)
			ctx := context.Background()
			for round := 0; round < 24; round++ {
				for i, m := range c.Members {
					m.Feed(40 + 10*i)
				}
				c.Pump(ctx)
				switch round {
				case 8:
					if err := c.Crash(ctx, c.Members[1]); err != nil {
						t.Fatal(err)
					}
				case 12, 18:
					if err := c.CrashAggregator(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, ok := c.Converge(ctx, 50); !ok {
				t.Fatalf("seed=%d every=%d: no convergence", seed, every)
			}
			checkConverged(t, c, true)
			if audit.checks == 0 || audit.chained == 0 {
				t.Fatalf("seed=%d every=%d: audited %d snapshots, %d with records; the schedule never built a chain",
					seed, every, audit.checks, audit.chained)
			}
			t.Logf("seed=%d every=%d: %d snapshots audited, %d restored through records", seed, every, audit.checks, audit.chained)
		}
	}
}

// TestTreeDurableChainDifferential is the multi-tier differential: every
// snapshot of the root and of each relay (downstream applies and the
// persist-before-send of each upstream frame) restores byte-identically,
// across lossy links and relay and root crashes.
func TestTreeDurableChainDifferential(t *testing.T) {
	for _, seed := range seeds {
		t.Logf("seed=%d", seed)
		tr, err := NewTree(cmsFixedSpec(), cmsFixedSpec(), treeTraces(2, 3, 2000, seed),
			TreeOptions{Plan: Plan{Seed: seed, Drop: 0.1, Dup: 0.1, AckLoss: 0.1, Delay: 0.1}, DataDir: t.TempDir(), SnapshotEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		audit := auditTree(t, tr)
		ctx := context.Background()
		runTree(ctx, tr, 6, 80)
		if err := tr.CrashRelay(0); err != nil {
			t.Fatal(err)
		}
		runTree(ctx, tr, 4, 80)
		if err := tr.CrashRoot(); err != nil {
			t.Fatal(err)
		}
		runTree(ctx, tr, 4, 80)
		if _, ok := tr.Converge(ctx, 60); !ok {
			t.Fatalf("seed=%d: no convergence", seed)
		}
		checkTreeConverged(t, tr)
		if audit.checks == 0 || audit.chained == 0 {
			t.Fatalf("seed=%d: audited %d snapshots, %d with records", seed, audit.checks, audit.chained)
		}
		t.Logf("seed=%d: %d snapshots audited, %d restored through records", seed, audit.checks, audit.chained)
	}
}

// newChainFixture is newDurableFixture with more members, so one-row
// records stay small against the checkpoint and chains grow long.
func newChainFixture(t *testing.T, seed int64) *Cluster {
	t.Helper()
	c, err := NewDurableCluster(cmsFixedSpec(), cmsFixedSpec(), traces(6, 3000, seed),
		Plan{Seed: seed, Drop: 0.15}, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for round := 0; round < 6; round++ {
		for _, m := range c.Members {
			m.Feed(100)
		}
		c.Pump(ctx)
	}
	if _, ok := c.Converge(ctx, 50); !ok {
		t.Fatalf("seed=%d: warm-up did not converge", seed)
	}
	return c
}

// growChain pushes one member's frames until the live chain under dir has
// at least n records and, with older set, a checkpoint older than its
// own still retained behind it.
func growChain(t *testing.T, sub *Cluster, dir string, n int, older bool) (uint64, []uint64) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		ckpt, records, err := SnapshotChain(dir)
		if err != nil {
			t.Fatal(err)
		}
		epochs, err := snapshotEpochs(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(records) >= n && (!older || epochs[0] < ckpt) {
			return ckpt, records
		}
		m := sub.Members[i%len(sub.Members)]
		m.Feed(30)
		m.Agent.PushOnce(ctx) //nolint:errcheck // faults are expected
	}
	t.Fatalf("chain under %s never reached %d records", dir, n)
	return 0, nil
}

// checkHoleNamed asserts that a restore skipped files starting with the
// damaged one, named in a typed *SnapshotError.
func checkHoleNamed(t *testing.T, skipped []error, path string, wantSkipped int) {
	t.Helper()
	if len(skipped) != wantSkipped {
		t.Fatalf("restore skipped %d files, want %d (the hole and every file after it): %v", len(skipped), wantSkipped, skipped)
	}
	var se *salsad.SnapshotError
	if !errors.As(skipped[0], &se) || se.Path != path || se.Reason == "" {
		t.Fatalf("first skipped error %v does not name the hole %s", skipped[0], path)
	}
}

// recoverAndCheck runs the cluster on after a lossy restore and demands
// bounded resyncs and the exact converged answer.
func recoverAndCheck(t *testing.T, c *Cluster) {
	t.Helper()
	ctx := context.Background()
	resyncs := c.Agg.Stats().Resyncs
	for round := 0; round < 4; round++ {
		for _, m := range c.Members {
			m.Feed(100)
		}
		c.Pump(ctx)
	}
	if _, ok := c.Converge(ctx, 50); !ok {
		t.Fatal("no convergence after restoring up to the hole")
	}
	if n := c.Agg.Stats().Resyncs - resyncs; n == 0 {
		t.Fatal("the frames past the hole never forced a resync — a gapped frame was absorbed silently")
	} else if n > uint64(len(c.Members)) {
		t.Fatalf("the hole cost %d resyncs for %d members; recovery is not bounded by what was lost", n, len(c.Members))
	}
	checkConverged(t, c, true)
}

// TestDurableChainCorruptMidRecord flips a bit in a record with another
// record after it: the restore keeps the checkpoint and the records
// before the hole, names the hole, and the members whose frames were lost
// resync.
func TestDurableChainCorruptMidRecord(t *testing.T) {
	seed := seeds[0]
	c := newChainFixture(t, seed)
	_, records := growChain(t, c, c.DataDir, 2, false)
	hole := records[(len(records)-1)/2]
	path, err := CorruptSnapshot(c.DataDir, hole)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("corrupted %s of a %d-record chain", filepath.Base(path), len(records))
	if err := c.CrashAggregator(); err != nil {
		t.Fatal(err)
	}
	if err := c.Agg.RestoreError(); err != nil {
		t.Fatalf("a mid-chain hole must fall back, not fail: %v", err)
	}
	checkHoleNamed(t, c.Agg.RestoreSkipped(), path, len(records)-(len(records)-1)/2)
	recoverAndCheck(t, c)
}

// TestDurableChainMissingRecord deletes a record out of the middle of a
// chain: the next record no longer follows anything on disk.
func TestDurableChainMissingRecord(t *testing.T) {
	seed := seeds[1]
	c := newChainFixture(t, seed)
	_, records := growChain(t, c, c.DataDir, 2, false)
	path, err := DeleteSnapshot(c.DataDir, records[0])
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("deleted %s of a %d-record chain", filepath.Base(path), len(records))
	if err := c.CrashAggregator(); err != nil {
		t.Fatal(err)
	}
	if err := c.Agg.RestoreError(); err != nil {
		t.Fatalf("a missing link must fall back, not fail: %v", err)
	}
	checkHoleNamed(t, c.Agg.RestoreSkipped(), path, len(records)-1)
	recoverAndCheck(t, c)
}

// TestDurableChainCorruptCheckpoint flips a bit in the checkpoint under a
// live chain: the restore falls back to the older checkpoint and its
// records, stops at the corrupt one, and skips the chain built on it.
func TestDurableChainCorruptCheckpoint(t *testing.T) {
	seed := seeds[2]
	c := newChainFixture(t, seed)
	ckpt, records := growChain(t, c, c.DataDir, 1, true)
	path, err := CorruptSnapshot(c.DataDir, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("corrupted checkpoint %s under %d records", filepath.Base(path), len(records))
	if err := c.CrashAggregator(); err != nil {
		t.Fatal(err)
	}
	if err := c.Agg.RestoreError(); err != nil {
		t.Fatalf("the older checkpoint should have loaded: %v", err)
	}
	checkHoleNamed(t, c.Agg.RestoreSkipped(), path, 1+len(records))
	recoverAndCheck(t, c)
}

// TestDurableRelayChainHoleBurnsGeneration is the relay variant: a hole in
// a durable relay's chain means its upstream frontier may predate frames
// it already sent, so the restarted relay must burn its generation and
// rejoin through the full-replacement path, exactly as when its newest
// snapshot is corrupt.
func TestDurableRelayChainHoleBurnsGeneration(t *testing.T) {
	seed := seeds[0]
	tr, err := NewTree(cmsFixedSpec(), cmsFixedSpec(), treeTraces(2, 4, 3000, seed),
		TreeOptions{Plan: Plan{Seed: seed, Drop: 0.15}, DataDir: t.TempDir(), SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	runTree(ctx, tr, 6, 100)
	if _, ok := tr.Converge(ctx, 60); !ok {
		t.Fatal("warm-up did not converge")
	}
	node := tr.Relays[0]
	_, records := growChain(t, node.Sub, node.dataDir, 2, false)
	hole := records[(len(records)-1)/2]
	path, err := CorruptSnapshot(node.dataDir, hole)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("corrupted %s of a %d-record relay chain", filepath.Base(path), len(records))
	oldGen := node.Relay.Gen()

	if err := tr.CrashRelay(0); err != nil {
		t.Fatal(err)
	}
	if err := node.Relay.RestoreError(); err != nil {
		t.Fatalf("a mid-chain hole must fall back, not fail: %v", err)
	}
	checkHoleNamed(t, node.Relay.Agg().RestoreSkipped(), path, len(records)-(len(records)-1)/2)
	if g := node.Relay.Gen(); g != 0 {
		t.Fatalf("gen = %d after a chain hole, want the resolve-fresh sentinel 0", g)
	}
	resyncs := node.Relay.Agg().Stats().Resyncs
	runTree(ctx, tr, 4, 100)
	if _, ok := tr.Converge(ctx, 60); !ok {
		t.Fatal("no convergence after the relay's chain hole")
	}
	if g := node.Relay.Gen(); g <= oldGen {
		t.Fatalf("rejoined under gen %d; the persisted generation %d was not burned", g, oldGen)
	}
	if n := node.Relay.Agg().Stats().Resyncs - resyncs; n > uint64(len(node.Sub.Members)) {
		t.Fatalf("the hole cost %d member resyncs for %d members", n, len(node.Sub.Members))
	}
	checkTreeConverged(t, tr)
}

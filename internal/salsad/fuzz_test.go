package salsad

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"salsa"
)

// fuzzEnvelope builds a test-spec envelope holding items.
func fuzzEnvelope(f *testing.F, items ...uint64) []byte {
	s := salsa.MustBuild(testSpec())
	for _, it := range items {
		s.Update(it, 1)
	}
	env, err := salsa.Marshal(s)
	if err != nil {
		f.Fatal(err)
	}
	return env
}

// fuzzChains writes an aggregator chain and a relay chain (a checkpoint
// and records each) and returns their directories.
func fuzzChains(f *testing.F) (aggDir, relayDir string) {
	apply := func(a *Aggregator, p *Push) {
		if _, err := a.ApplyPush(p); err != nil {
			f.Fatal(err)
		}
	}
	aggDir = filepath.Join(f.TempDir(), "aggregator")
	a, err := NewAggregator(AggregatorConfig{Spec: testSpec(), DataDir: aggDir})
	if err != nil {
		f.Fatal(err)
	}
	apply(a, &Push{Agent: "a1", Gen: 1, Seq: 1, Flags: FlagFull, Candidates: []uint64{7, 9}, Envelope: fuzzEnvelope(f, 7, 7, 9)})
	apply(a, &Push{Agent: "a2", Gen: 3, Seq: 1, Flags: FlagFull, Envelope: fuzzEnvelope(f, 1, 2)})
	a.Persist() //nolint:errcheck // a failed seed only weakens the corpus
	apply(a, &Push{Agent: "a2", Gen: 4, Seq: 1, Candidates: []uint64{4}, Envelope: fuzzEnvelope(f, 4)})
	a.Persist() //nolint:errcheck // as above

	relayDir = filepath.Join(f.TempDir(), "relay")
	root, err := NewAggregator(AggregatorConfig{Spec: testSpec()})
	if err != nil {
		f.Fatal(err)
	}
	r, err := NewRelay(RelayConfig{ID: "relay-1", Spec: testSpec(), Upstream: &directTransport{agg: root},
		Generation: 1, DataDir: relayDir, JitterSeed: 1})
	if err != nil {
		f.Fatal(err)
	}
	apply(r.Agg(), &Push{Agent: "e1", Gen: 1, Seq: 1, Flags: FlagFull, Envelope: fuzzEnvelope(f, 1, 1, 2)})
	apply(r.Agg(), &Push{Agent: "e2", Gen: 1, Seq: 1, Flags: FlagFull, Envelope: fuzzEnvelope(f, 3)})
	r.PushOnce(context.Background()) //nolint:errcheck // as above
	apply(r.Agg(), &Push{Agent: "e1", Gen: 1, Seq: 2, Envelope: fuzzEnvelope(f, 5)})
	r.Persist() //nolint:errcheck // as above
	return aggDir, relayDir
}

// FuzzRestoreState feeds arbitrary bytes to every disk-facing decoder: as
// a checkpoint payload, as a record payload, and as a snapshot file
// following a valid checkpoint in a chain. None may panic or allocate
// past what the input's declared lengths, MaxSnapshotBytes and the
// envelope cap allow, and whatever decodes must re-marshal to a fixed
// point. Seeded with checkpoint and record payloads of both role kinds
// and with their snapshot files.
func FuzzRestoreState(f *testing.F) {
	aggDir, relayDir := fuzzChains(f)
	for _, dir := range []string{aggDir, relayDir} {
		res, err := (&Store{dir: dir}).LoadChain()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(res.State)
		for _, r := range res.Records {
			f.Add(r.Payload)
			file, err := os.ReadFile(r.Path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(file)
		}
	}
	base, err := os.ReadFile(filepath.Join(aggDir, SnapshotFileName(1)))
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzCheckpoint(t, data)
		fuzzRecord(t, data)
		fuzzChainFile(t, base, data)
	})
}

func newFuzzAggregator(t *testing.T) *Aggregator {
	a, err := NewAggregator(AggregatorConfig{Spec: testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// fuzzCheckpoint restores data as a checkpoint payload and checks that
// marshal ∘ restore is a fixed point on what it produces.
func fuzzCheckpoint(t *testing.T, data []byte) {
	a := newFuzzAggregator(t)
	kind, up, err := a.restoreState(data)
	if err != nil {
		return
	}
	if kind == stateKindRelay {
		r := &Relay{cfg: RelayConfig{ID: "relay-1"}, agg: a}
		r.restoreUpstream(up) //nolint:errcheck // must only not panic
	}
	b1, err := a.marshalState(kind, up)
	if err != nil {
		t.Fatal(err)
	}
	b := newFuzzAggregator(t)
	kind2, up2, err := b.restoreState(b1)
	if err != nil {
		t.Fatalf("re-marshaled checkpoint does not restore: %v", err)
	}
	b2, err := b.marshalState(kind2, up2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("checkpoint re-marshal is not a fixed point")
	}
}

// fuzzRecord parses data as a record, replays it onto an empty state of
// its kind, and checks that re-marshaling it as a record (every row and
// candidate carried) is a fixed point.
func fuzzRecord(t *testing.T, data []byte) {
	rec, err := parseImage(data, true, DefaultMaxEnvelopeBytes)
	if err != nil {
		return
	}
	r1, ok := replayRecord(t, rec)
	if !ok {
		return
	}
	rec2, err := parseImage(r1, true, DefaultMaxEnvelopeBytes)
	if err != nil {
		t.Fatalf("re-marshaled record does not parse: %v", err)
	}
	r2, ok := replayRecord(t, rec2)
	if !ok {
		t.Fatal("re-marshaled record does not restore")
	}
	if !bytes.Equal(r1, r2) {
		t.Fatal("record re-marshal is not a fixed point")
	}
}

// replayRecord installs rec over an empty state and marshals the result
// back as a record carrying every row and candidate; ok is false when the
// record's sketches do not decode.
func replayRecord(t *testing.T, rec *stateImage) ([]byte, bool) {
	img := &stateImage{kind: rec.kind, rows: map[string]*rowImage{}, candidates: map[uint64]struct{}{}}
	if err := img.apply(rec); err != nil {
		t.Fatalf("record refused by an empty state of its own kind: %v", err)
	}
	a := newFuzzAggregator(t)
	if err := a.install(img); err != nil {
		return nil, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for id := range a.agents {
		a.dirty[id] = 1
	}
	for it := range a.candidates {
		a.newCands = append(a.newCands, it)
	}
	out, err := a.appendRecordLocked(img.kind, &a.stats, rec.upstream)
	if err != nil {
		t.Fatal(err)
	}
	return out, true
}

// fuzzChainFile writes data as the snapshot file after a valid checkpoint
// and restores the directory through the chain loader.
func fuzzChainFile(t *testing.T, base, data []byte) {
	if _, reason := parseSnapshotFile(data, 2); reason != "" {
		return // the loader rejects the file before decoding it
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SnapshotFileName(1)), base, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, SnapshotFileName(2)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := NewAggregator(AggregatorConfig{Spec: testSpec(), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if a.RestoreError() != nil {
		return
	}
	if len(a.RestoreSkipped()) == 0 {
		// The file extended the chain: a persist must extend it again
		// and restore to the same state.
		if _, err := a.Persist(); err != nil {
			t.Fatal(err)
		}
		want, err := a.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewAggregator(AggregatorConfig{Spec: testSpec(), DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.MarshalState()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("chain extended by a fuzzed record does not restore: %v", err)
		}
	}
}

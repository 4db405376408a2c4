package salsad

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Snapshot chains: a durable node persists a record of the rows changed
// since its last snapshot, and a checkpoint of the whole table only when
// every row changed or the chain would outweigh its checkpoint.

// fileVersion returns the version byte of the snapshot file of an epoch.
func fileVersion(t *testing.T, dir string, epoch uint64) byte {
	t.Helper()
	v := peekVersion(filepath.Join(dir, SnapshotFileName(epoch)))
	if v == 0 {
		t.Fatalf("epoch %d: no readable snapshot file", epoch)
	}
	return v
}

// persistOne persists and checks that exactly one new snapshot file
// appeared, of the wanted version, and nothing else (no .tmp leftovers).
func persistOne(t *testing.T, persist func() (uint64, error), dir string, want byte) uint64 {
	t.Helper()
	before := dirNames(t, dir)
	epoch, err := persist()
	if err != nil {
		t.Fatal(err)
	}
	if got := fileVersion(t, dir, epoch); got != want {
		t.Fatalf("epoch %d has version %d, want %d", epoch, got, want)
	}
	for name := range dirNames(t, dir) {
		if !before[name] && name != SnapshotFileName(epoch) {
			t.Fatalf("persist of epoch %d also wrote %s", epoch, name)
		}
	}
	return epoch
}

func dirNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool, len(entries))
	for _, ent := range entries {
		out[ent.Name()] = true
	}
	return out
}

func fileSize(t *testing.T, dir string, epoch uint64) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, SnapshotFileName(epoch)))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// checkRestores restarts an aggregator over dir and demands the live
// node's MarshalState bytes.
func checkRestores(t *testing.T, live *Aggregator, dir string) *Aggregator {
	t.Helper()
	want, err := live.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	b := newTestAggregator(t, AggregatorConfig{DataDir: dir, SnapshotEvery: 1})
	if err := b.RestoreError(); err != nil {
		t.Fatal(err)
	}
	if s := b.RestoreSkipped(); len(s) != 0 {
		t.Fatalf("clean chain skipped %v", s)
	}
	got, err := b.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("checkpoint + records restore differs from the live state")
	}
	return b
}

// seedAgents applies a first frame from n agents.
func seedAgents(t *testing.T, a *Aggregator, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		push(t, a, &Push{Agent: fmt.Sprintf("a%02d", i), Gen: 1, Seq: 1, Flags: FlagFull,
			Candidates: []uint64{uint64(100 + i)}, Envelope: envelopeFor(t, uint64(i), uint64(i))})
	}
}

func TestPersistWritesRecordsOfChangedRows(t *testing.T) {
	dir := t.TempDir()
	a := newTestAggregator(t, AggregatorConfig{DataDir: dir, SnapshotEvery: 1})
	seedAgents(t, a, 8)
	// Nothing on disk yet: the first snapshot is a checkpoint.
	ckpt := persistOne(t, a.Persist, dir, snapVersion)

	push(t, a, &Push{Agent: "a03", Gen: 1, Seq: 2, Candidates: []uint64{7}, Envelope: envelopeFor(t, 7)})
	rec := persistOne(t, a.Persist, dir, snapRecordVersion)
	if rs, cs := fileSize(t, dir, rec), fileSize(t, dir, ckpt); rs*4 > cs {
		t.Fatalf("one-row record is %d bytes against a %d-byte checkpoint", rs, cs)
	}
	// A persist with nothing changed still writes one (counters-only)
	// record, so every persist is exactly one file.
	persistOne(t, a.Persist, dir, snapRecordVersion)
	checkRestores(t, a, dir)
}

func TestPersistCheckpointsWhenEveryRowChanged(t *testing.T) {
	dir := t.TempDir()
	a := newTestAggregator(t, AggregatorConfig{DataDir: dir, SnapshotEvery: 1})
	seedAgents(t, a, 3)
	persistOne(t, a.Persist, dir, snapVersion)
	for i := 0; i < 3; i++ {
		push(t, a, &Push{Agent: fmt.Sprintf("a%02d", i), Gen: 1, Seq: 2, Envelope: envelopeFor(t, 9)})
	}
	persistOne(t, a.Persist, dir, snapVersion)
	checkRestores(t, a, dir)
}

func TestPersistChainBoundedByCheckpoint(t *testing.T) {
	dir := t.TempDir()
	a := newTestAggregator(t, AggregatorConfig{DataDir: dir, SnapshotEvery: 1})
	seedAgents(t, a, 6)
	persistOne(t, a.Persist, dir, snapVersion)
	seq := uint64(1)
	var checkpoints []uint64
	for round := 0; round < 40; round++ {
		seq++
		push(t, a, &Push{Agent: "a00", Gen: 1, Seq: seq, Envelope: envelopeFor(t, seq)})
		epoch, err := a.Persist()
		if err != nil {
			t.Fatal(err)
		}
		if fileVersion(t, dir, epoch) == snapVersion {
			checkpoints = append(checkpoints, epoch)
		}
		// Retention: the two newest checkpoints and everything after the
		// older one; the chain after the newest never outweighs it.
		store := a.Store()
		res, err := store.LoadChain()
		if err != nil {
			t.Fatal(err)
		}
		chain := 0
		for _, r := range res.Records {
			chain += snapFileLen(snapRecordVersion, len(r.Payload))
		}
		if ckpt := snapFileLen(snapVersion, len(res.State)); chain > ckpt {
			t.Fatalf("round %d: %d chain bytes after a %d-byte checkpoint", round, chain, ckpt)
		}
		if n := len(checkpoints); n >= 2 {
			for name := range dirNames(t, dir) {
				if e, ok := ParseSnapshotFileName(name); ok && e < checkpoints[n-2] {
					t.Fatalf("round %d: epoch %d survived past checkpoint %d", round, e, checkpoints[n-2])
				}
			}
		}
	}
	if len(checkpoints) < 2 {
		t.Fatalf("40 one-row records of a 6-row table started only %d new checkpoints", len(checkpoints))
	}
	checkRestores(t, a, dir)
}

// TestPersistAckedDuringSaveStaysDue is the regression test for a frame
// applied (and acked) between a persist's capture and the end of its
// save: the snapshot lacks it, so the node must not count it persisted.
func TestPersistAckedDuringSaveStaysDue(t *testing.T) {
	dir := t.TempDir()
	a := newTestAggregator(t, AggregatorConfig{DataDir: dir, SnapshotEvery: 1})
	push(t, a, &Push{Agent: "a1", Gen: 1, Seq: 1, Flags: FlagFull, Envelope: envelopeFor(t, 1)})

	capture := a.pers.state
	a.pers.state = func(full bool) (*stateCut, error) {
		cut, err := capture(full)
		// A concurrent HTTP push lands right after the marshal.
		push(t, a, &Push{Agent: "a1", Gen: 1, Seq: 2, Envelope: envelopeFor(t, 2)})
		a.pers.state = capture
		return cut, err
	}
	if ok, err := a.MaybePersist(); err != nil || !ok {
		t.Fatalf("first MaybePersist: ok=%v err=%v", ok, err)
	}
	// Seq 2 was acked but is not in the snapshot: the next tick is due.
	if ok, err := a.MaybePersist(); err != nil || !ok {
		t.Fatalf("frame acked during the save was counted as persisted: ok=%v err=%v", ok, err)
	}
	// kill -9: the restarted node still holds seq 2.
	b := newTestAggregator(t, AggregatorConfig{DataDir: dir, SnapshotEvery: 1})
	if info := b.Resume("a1"); info.Seq != 2 {
		t.Fatalf("acked frame lost in a crash: restored frontier %+v", info)
	}
	if got := queryOne(t, b, 2); got != 1 {
		t.Fatalf("count(2) after restart = %d, want 1", got)
	}
}

// TestPersistFailureKeepsRowsDirty fails one save: the rows it would have
// carried must ride the next record.
func TestPersistFailureKeepsRowsDirty(t *testing.T) {
	dir := t.TempDir()
	a := newTestAggregator(t, AggregatorConfig{DataDir: dir, SnapshotEvery: 1})
	seedAgents(t, a, 4)
	ckpt := persistOne(t, a.Persist, dir, snapVersion)
	push(t, a, &Push{Agent: "a02", Gen: 1, Seq: 2, Envelope: envelopeFor(t, 5)})

	// A directory squatting on the .tmp name makes the write fail.
	blocker := filepath.Join(dir, SnapshotFileName(ckpt+1)+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	var se *SnapshotError
	if _, err := a.Persist(); !errors.As(err, &se) {
		t.Fatalf("want a *SnapshotError from the blocked save, got %v", err)
	}
	if a.Stats().PersistErrors != 1 {
		t.Fatalf("failed save not counted: %+v", a.Stats())
	}
	os.Remove(blocker) // the failed save may have swept it already
	persistOne(t, a.Persist, dir, snapRecordVersion)
	b := checkRestores(t, a, dir)
	if info := b.Resume("a02"); info.Seq != 2 {
		t.Fatalf("row of the failed save was lost: %+v", info)
	}
}

// chainFixture persists a checkpoint and then three one-row records,
// returning the epochs in order.
func chainFixture(t *testing.T, dir string) (*Aggregator, []uint64) {
	t.Helper()
	a := newTestAggregator(t, AggregatorConfig{DataDir: dir, SnapshotEvery: 1})
	seedAgents(t, a, 4)
	epochs := []uint64{persistOne(t, a.Persist, dir, snapVersion)}
	for i := 0; i < 3; i++ {
		push(t, a, &Push{Agent: fmt.Sprintf("a%02d", i), Gen: 1, Seq: 2, Envelope: envelopeFor(t, 50)})
		epochs = append(epochs, persistOne(t, a.Persist, dir, snapRecordVersion))
	}
	return a, epochs
}

func TestLoadChainStopsAtCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	_, epochs := chainFixture(t, dir)
	hole := filepath.Join(dir, SnapshotFileName(epochs[2]))
	if err := corruptFile(hole); err != nil {
		t.Fatal(err)
	}
	b := newTestAggregator(t, AggregatorConfig{DataDir: dir, SnapshotEvery: 1})
	if err := b.RestoreError(); err != nil {
		t.Fatalf("a mid-chain hole must fall back, not fail: %v", err)
	}
	skipped := b.RestoreSkipped()
	if len(skipped) != 2 {
		t.Fatalf("skipped %d files, want the hole and the record after it: %v", len(skipped), skipped)
	}
	var se *SnapshotError
	if !errors.As(skipped[0], &se) || se.Path != hole || !strings.Contains(se.Reason, "checksum") {
		t.Fatalf("first skipped error %v does not name the hole", skipped[0])
	}
	// The state stops before the hole: a00 advanced, a01 did not.
	if info := b.Resume("a00"); info.Seq != 2 {
		t.Fatalf("record before the hole not applied: %+v", info)
	}
	if info := b.Resume("a01"); info.Seq != 1 {
		t.Fatalf("record past the hole applied: %+v", info)
	}
	// The next persist starts a fresh chain, which restores cleanly.
	push(t, b, &Push{Agent: "a00", Gen: 1, Seq: 3, Envelope: envelopeFor(t, 3)})
	persistOne(t, b.Persist, dir, snapVersion)
	checkRestores(t, b, dir)
}

func TestLoadChainStopsAtMissingLink(t *testing.T) {
	dir := t.TempDir()
	_, epochs := chainFixture(t, dir)
	if err := os.Remove(filepath.Join(dir, SnapshotFileName(epochs[1]))); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != epochs[0] || len(res.Records) != 0 || len(res.Skipped) != 2 {
		t.Fatalf("loaded epoch %d + %d records, skipped %d", res.Epoch, len(res.Records), len(res.Skipped))
	}
	var se *SnapshotError
	if !errors.As(res.Skipped[0], &se) || !strings.Contains(se.Path, SnapshotFileName(epochs[1])) ||
		!strings.Contains(se.Reason, "missing link") {
		t.Fatalf("hole not named: %v", res.Skipped[0])
	}
}

func TestLoadChainFallsBackPastCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := s.Save([]byte("older checkpoint"))
	r2, _ := s.saveRecord(c1, []byte("r2"))
	c3, _ := s.Save([]byte("newer checkpoint"))
	r4, err := s.saveRecord(c3, []byte("r4"))
	if err != nil {
		t.Fatal(err)
	}
	if err := corruptFile(filepath.Join(dir, SnapshotFileName(c3))); err != nil {
		t.Fatal(err)
	}
	res, err := s.LoadChain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != c1 || len(res.Records) != 1 || res.Records[0].Epoch != r2 {
		t.Fatalf("loaded epoch %d + %d records", res.Epoch, len(res.Records))
	}
	if len(res.Skipped) != 2 {
		t.Fatalf("skipped %v, want the corrupt checkpoint and the record on it", res.Skipped)
	}
	var se *SnapshotError
	if !errors.As(res.Skipped[0], &se) || !strings.Contains(se.Path, SnapshotFileName(c3)) {
		t.Fatalf("hole not named first: %v", res.Skipped[0])
	}
	if !errors.As(res.Skipped[1], &se) || !strings.Contains(se.Path, SnapshotFileName(r4)) {
		t.Fatalf("record past the hole not reported: %v", res.Skipped[1])
	}
	// LoadLatest still returns a checkpoint, never a bare record.
	latest, err := s.LoadLatest()
	if err != nil || latest.Epoch != c1 {
		t.Fatalf("LoadLatest: %v, %+v", err, latest)
	}
}

func TestSaveRecordMustFollowNewest(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var se *SnapshotError
	if _, err := s.saveRecord(0, []byte("no base")); !errors.As(err, &se) {
		t.Fatalf("record without a base: %v", err)
	}
	c1, _ := s.Save([]byte("c1"))
	if _, err := s.Save([]byte("c2")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.saveRecord(c1, []byte("stale")); !errors.As(err, &se) {
		t.Fatalf("record skipping a file: %v", err)
	}
}

// copyDir copies a flat directory of files.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoresDataDirOfCheckpointOnlyFormat loads data dirs written
// before records existed (testdata/v1-datadir: every file a checkpoint)
// and extends them with records.
func TestRestoresDataDirOfCheckpointOnlyFormat(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "aggregator")
	copyDir(t, filepath.Join("testdata", "v1-datadir", "aggregator"), dir)
	latest, err := (&Store{dir: dir}).LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	a := newTestAggregator(t, AggregatorConfig{DataDir: dir, SnapshotEvery: 1})
	if err := a.RestoreError(); err != nil {
		t.Fatal(err)
	}
	got, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, latest.State) {
		t.Fatal("restored state differs from the checkpoint on disk")
	}
	if info := a.Resume("a1"); info.Gen != 1 || info.Seq != 3 || info.Cursor != 30 {
		t.Fatalf("restored frontier: %+v", info)
	}
	if ack := push(t, a, &Push{Agent: "a1", Gen: 1, Seq: 4, Envelope: envelopeFor(t, 6)}); ack.Status != StatusApplied {
		t.Fatalf("continuation frame: %v", ack.Status)
	}
	persistOne(t, a.Persist, dir, snapRecordVersion)
	checkRestores(t, a, dir)

	relayDir := filepath.Join(t.TempDir(), "relay")
	copyDir(t, filepath.Join("testdata", "v1-datadir", "relay"), relayDir)
	latest, err = (&Store{dir: relayDir}).LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	root := newTestAggregator(t, AggregatorConfig{})
	r, _ := newTestRelay(t, root, RelayConfig{ID: "relay-1", Generation: 1, DataDir: relayDir})
	if err := r.RestoreError(); err != nil {
		t.Fatal(err)
	}
	if got, err = r.MarshalState(); err != nil || !bytes.Equal(got, latest.State) {
		t.Fatalf("restored relay state differs from the checkpoint on disk (err %v)", err)
	}
	if f := r.currentFrame(); f == nil || f.Seq != 2 || r.Gen() != 1 {
		t.Fatalf("frozen frame not restored: gen %d frame %+v", r.Gen(), f)
	}
}

// checkRelayRestores restarts a relay over dir and demands the live
// relay's MarshalState bytes.
func checkRelayRestores(t *testing.T, live *Relay, root *Aggregator, dir string) {
	t.Helper()
	want, err := live.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := newTestRelay(t, root, RelayConfig{ID: live.cfg.ID, Generation: 1, DataDir: dir})
	if err := r2.RestoreError(); err != nil {
		t.Fatal(err)
	}
	got, err := r2.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("relay checkpoint + records restore differs from the live state")
	}
}

func TestRelayRecordsCarryUpstreamOnlyWhenChanged(t *testing.T) {
	dir := t.TempDir()
	root := newTestAggregator(t, AggregatorConfig{})
	r, _ := newTestRelay(t, root, RelayConfig{Generation: 1, DataDir: dir, SnapshotEvery: 1})
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		feedRelay(t, r, fmt.Sprintf("e%d", i), 1, 1, uint64(i))
	}
	if err := r.PushOnce(ctx); err != nil { // cut, persist (a checkpoint), send
		t.Fatal(err)
	}
	persistOne(t, r.Persist, dir, snapRecordVersion) // the ack moved the shadow
	feedRelay(t, r, "e0", 1, 2, 9)
	persistOne(t, r.Persist, dir, snapRecordVersion) // one row, upstream unchanged
	res, err := r.Agg().Store().LoadChain()
	if err != nil || len(res.Records) != 2 {
		t.Fatalf("chain: %v, %+v", err, res)
	}
	for i, wantUp := range []bool{true, false} {
		img, err := parseImage(res.Records[i].Payload, true, DefaultMaxEnvelopeBytes)
		if err != nil {
			t.Fatal(err)
		}
		if got := img.upstream != nil; got != wantUp || len(img.rows) != i {
			t.Fatalf("record %d: upstream %v (want %v), %d rows (want %d)", i, got, wantUp, len(img.rows), i)
		}
	}
	checkRelayRestores(t, r, root, dir)
	// The next frame is cut and persisted as a record before it is sent.
	if err := r.PushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if v := fileVersion(t, dir, r.Agg().Store().Epoch()); v != snapRecordVersion {
		t.Fatalf("cut persisted as version %d", v)
	}
	persistOne(t, r.Persist, dir, snapRecordVersion) // the ack, again
	checkRelayRestores(t, r, root, dir)
}

// TestConcurrentPushesPersistChain applies and persists from several
// goroutines at once, as concurrent HTTP pushes do, while a relay cuts
// and persists upstream frames: every record must land in order and the
// final chain must restore to the live state.
func TestConcurrentPushesPersistChain(t *testing.T) {
	dir := t.TempDir()
	root := newTestAggregator(t, AggregatorConfig{})
	r, _ := newTestRelay(t, root, RelayConfig{Generation: 1, DataDir: dir, SnapshotEvery: 1})
	const agents, frames = 4, 25
	envs := make([][]byte, frames)
	for i := range envs {
		envs[i] = envelopeFor(t, uint64(i), uint64(i*7))
	}
	ctx := context.Background()
	done := make(chan struct{})
	errs := make(chan error, agents)
	for g := 0; g < agents; g++ {
		go func(id string) {
			defer func() { done <- struct{}{} }()
			for seq := uint64(1); seq <= frames; seq++ {
				flags := byte(0)
				if seq == 1 {
					flags = FlagFull
				}
				ack, err := r.Agg().ApplyPush(&Push{Agent: id, Gen: 1, Seq: seq, Flags: flags,
					Candidates: []uint64{seq}, Envelope: envs[seq-1]})
				if err == nil && ack.Status != StatusApplied {
					err = fmt.Errorf("%s seq %d: %s", id, seq, ack.Status)
				}
				if err == nil {
					_, err = r.Agg().MaybePersist()
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(fmt.Sprintf("e%d", g))
	}
	for running := agents; running > 0; {
		select {
		case <-done:
			running--
		default:
			if err := r.PushOnce(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := r.PushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Persist(); err != nil {
		t.Fatal(err)
	}
	checkRelayRestores(t, r, root, dir)
	if got := queryOne(t, root, 7); got != agents*2 { // items 1·7 and 7
		t.Fatalf("root count(7) = %d, want %d", got, agents*2)
	}
}

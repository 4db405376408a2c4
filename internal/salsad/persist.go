package salsad

// Crash-consistent durable state for aggregators and relays.
//
// A Store owns a data directory holding snapshot files named
// snap-<epoch>.salsad, where <epoch> is a 16-hex-digit monotonically
// increasing stamp. Each file wraps an opaque payload in a small header
// (magic, version, epoch, length) followed by a CRC-64/ECMA checksum over
// everything before it. Writes are atomic: the file is assembled in a
// .tmp sibling, fsynced, renamed into place, and the directory fsynced —
// so a crash mid-write leaves only an ignorable .tmp and every *named*
// snapshot on disk is complete. The embedded epoch must match the
// filename's, which is what catches a stale snapshot replayed under a
// newer name.
//
// A file is one of two kinds. A checkpoint (version 1) holds a node's
// whole durable state. A record (version 2) holds only what changed since
// the file before it, and its header also names the epoch it follows. A
// node's state on disk is therefore a chain: a checkpoint plus the
// records written after it, each following the one before. Persisting
// writes exactly one file, a record whenever the change fits, so its cost
// tracks the rows that changed rather than the size of the table; a new
// checkpoint starts the next chain when every row changed or when the
// chain's records would outweigh their checkpoint. Retention keeps the
// two newest checkpoints and everything after the older one, so a
// restore reads at most about two checkpoints' worth of bytes.
//
// Restore loads the newest valid checkpoint plus the contiguous valid
// records after it and stops at the first file that is torn, truncated,
// bit-flipped, stale-epoch or does not follow its predecessor. That hole
// and every file after it are reported as skipped *SnapshotErrors, and
// ErrNoSnapshot means the directory holds nothing at all. Callers that
// persist protocol frontiers (the relay's upstream frozen frame) treat
// any skipped file as a signal that the durable frontier cannot be
// trusted and fall back to the resync path.
//
// The state payload itself is the aggregator's table — per-agent sketch
// contributions serialized via the universal envelope, generations, seq
// frontiers, replay cursors, the candidate pool, and the protocol
// counters — plus, for relays, the upstream shipping state (generation,
// seq, shadow snapshot, and the frozen in-flight frame, which must
// survive a crash byte-identically for retry dedup to stay exact).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"salsa"
)

const (
	snapMagic uint32 = 0x50534c53 // "SLSP" little-endian
	// snapVersion marks a checkpoint file, snapRecordVersion a record.
	snapVersion       byte = 1
	snapRecordVersion byte = 2
	snapPrefix             = "snap-"
	snapSuffix             = ".salsad"
	// snapKeep is how many checkpoints Save retains, together with every
	// record after the older one: the newest chain plus one predecessor,
	// so a corrupted newest checkpoint still has a consistent (if older)
	// fallback.
	snapKeep = 2

	// snapHeaderLen is magic+version+epoch+payloadLen; a record's header
	// adds the epoch it follows. snapTrailerLen is the checksum.
	snapHeaderLen   = 4 + 1 + 8 + 4
	recordHeaderLen = snapHeaderLen + 8
	snapTrailerLen  = 8

	// MaxSnapshotBytes bounds the snapshot payload a Store will write or
	// read back; a corrupted length field cannot balloon allocation.
	MaxSnapshotBytes = 1 << 30
)

// crcSnap is the checksum polynomial table for snapshot files.
var crcSnap = crc64.MakeTable(crc64.ECMA)

// ErrNoSnapshot is returned by LoadLatest when the data directory holds
// no snapshot files at all — a first boot, as opposed to a corrupt one.
var ErrNoSnapshot = errors.New("salsad: no snapshot on disk")

// A SnapshotError reports a snapshot file (or write) that failed
// validation: torn, truncated, checksum-mismatched, stale-epoch, cut off
// from its chain, or written by an incompatible role. Restores treat it
// as "this file does not exist" and fall back — to an older snapshot or
// to the resync path.
type SnapshotError struct {
	// Path is the offending file ("" when the state decoded but was
	// semantically unusable).
	Path string
	// Reason states what failed.
	Reason string
	// Err is the underlying cause, if any.
	Err error
}

func (e *SnapshotError) Error() string {
	msg := "salsad: snapshot"
	if e.Path != "" {
		msg += " " + e.Path
	}
	msg += ": " + e.Reason
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *SnapshotError) Unwrap() error { return e.Err }

// SnapshotFileName returns the file name a snapshot with the given epoch
// is stored under.
func SnapshotFileName(epoch uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, epoch, snapSuffix)
}

// ParseSnapshotFileName extracts the epoch from a snapshot file name; ok
// is false for names that are not canonical snapshot files.
func ParseSnapshotFileName(name string) (epoch uint64, ok bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	hexa := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	if len(hexa) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hexa, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Store is a crash-consistent snapshot directory. Its methods are safe
// for concurrent use.
type Store struct {
	dir string

	mu    sync.Mutex
	epoch uint64 // highest epoch present or written
	// checkpoints holds the epochs of the newest (at most snapKeep)
	// checkpoint files, ascending; retention keeps everything from the
	// first.
	checkpoints []uint64
}

// OpenStore opens (creating if needed) a snapshot directory, removes
// leftover .tmp files from interrupted writes, and positions the epoch
// counter above every snapshot already present.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, &ConfigError{Field: "DataDir", Reason: "snapshot store needs a data directory"}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, &SnapshotError{Path: dir, Reason: "create data dir", Err: err}
	}
	s := &Store{dir: dir}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, &SnapshotError{Path: dir, Reason: "scan data dir", Err: err}
	}
	var epochs []uint64
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasSuffix(name, ".tmp") && strings.HasPrefix(name, snapPrefix) {
			os.Remove(filepath.Join(dir, name)) //nolint:errcheck // best-effort cleanup
			continue
		}
		if epoch, ok := ParseSnapshotFileName(name); ok {
			epochs = append(epochs, epoch)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	if len(epochs) > 0 {
		s.epoch = epochs[len(epochs)-1]
	}
	// Find the newest checkpoints from their header bytes alone.
	for i := len(epochs) - 1; i >= 0 && len(s.checkpoints) < snapKeep; i-- {
		if peekVersion(filepath.Join(dir, SnapshotFileName(epochs[i]))) == snapVersion {
			s.checkpoints = append([]uint64{epochs[i]}, s.checkpoints...)
		}
	}
	return s, nil
}

// peekVersion returns a snapshot file's version byte, or 0 when it cannot
// be read.
func peekVersion(path string) byte {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	var hdr [5]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || binary.LittleEndian.Uint32(hdr[:]) != snapMagic {
		return 0
	}
	return hdr[4]
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Epoch returns the highest snapshot epoch present or written so far.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Save writes state as the next-epoch checkpoint: assembled in a .tmp
// file, fsynced, renamed into place, directory fsynced. Files older than
// the retention window (the snapKeep newest checkpoints and the records
// after the older one) are pruned. Returns the epoch written.
func (s *Store) Save(state []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch, err := s.writeLocked(snapVersion, 0, state)
	if err != nil {
		return 0, err
	}
	s.checkpoints = append(s.checkpoints, epoch)
	if len(s.checkpoints) > snapKeep {
		s.checkpoints = s.checkpoints[len(s.checkpoints)-snapKeep:]
	}
	s.pruneLocked()
	return epoch, nil
}

// saveRecord writes payload as the next-epoch record, following epoch
// prev, which must be the newest file in the directory: a record that
// skipped a file could never be reached by a restore.
func (s *Store) saveRecord(prev uint64, payload []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev == 0 || prev != s.epoch {
		return 0, &SnapshotError{Path: s.dir, Reason: fmt.Sprintf("record would follow epoch %d, but the newest snapshot is epoch %d", prev, s.epoch)}
	}
	return s.writeLocked(snapRecordVersion, prev, payload)
}

// writeLocked assembles, writes and publishes one snapshot file.
func (s *Store) writeLocked(version byte, prev uint64, payload []byte) (uint64, error) {
	if len(payload) > MaxSnapshotBytes {
		return 0, &SnapshotError{Path: s.dir, Reason: fmt.Sprintf("state of %d bytes exceeds the %d-byte cap", len(payload), MaxSnapshotBytes)}
	}
	epoch := s.epoch + 1
	buf := make([]byte, 0, snapFileLen(version, len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, snapMagic)
	buf = append(buf, version)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	if version == snapRecordVersion {
		buf = binary.LittleEndian.AppendUint64(buf, prev)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf, crcSnap))

	final := filepath.Join(s.dir, SnapshotFileName(epoch))
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, buf); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return 0, &SnapshotError{Path: tmp, Reason: "write snapshot", Err: err}
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return 0, &SnapshotError{Path: final, Reason: "publish snapshot", Err: err}
	}
	syncDir(s.dir)
	s.epoch = epoch
	return epoch, nil
}

// snapFileLen is the size of a snapshot file of the given version
// carrying n payload bytes.
func snapFileLen(version byte, n int) int {
	if version == snapRecordVersion {
		return recordHeaderLen + n + snapTrailerLen
	}
	return snapHeaderLen + n + snapTrailerLen
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close() //nolint:errcheck // write error wins
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //nolint:errcheck // sync error wins
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename survives power loss; failures
// are ignored (some filesystems reject directory fsync).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()  //nolint:errcheck // best effort
	d.Close() //nolint:errcheck // read-only handle
}

// pruneLocked removes every snapshot older than the oldest retained
// checkpoint.
func (s *Store) pruneLocked() {
	if len(s.checkpoints) < snapKeep {
		return
	}
	for _, e := range s.listEpochsLocked() {
		if e >= s.checkpoints[0] {
			break
		}
		os.Remove(filepath.Join(s.dir, SnapshotFileName(e))) //nolint:errcheck // retention is best-effort
	}
}

// listEpochsLocked returns the epochs of every named snapshot file in
// ascending order.
func (s *Store) listEpochsLocked() []uint64 {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var epochs []uint64
	for _, ent := range entries {
		if e, ok := ParseSnapshotFileName(ent.Name()); ok {
			epochs = append(epochs, e)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	return epochs
}

// LoadResult is a successfully loaded checkpoint, the records loaded on
// top of it, and the trail of files that failed validation on the way.
type LoadResult struct {
	// State is the checkpoint payload.
	State []byte
	// Epoch is the loaded checkpoint's epoch stamp.
	Epoch uint64
	// Path is the file the state came from.
	Path string
	// Records are the valid records that follow the checkpoint, oldest
	// first, each following the one before (LoadChain only).
	Records []Record
	// Skipped holds one *SnapshotError per newer file that was passed
	// over. Non-empty Skipped means the loaded state may predate frames
	// that were already transmitted — protocol frontiers recovered from
	// it must not be trusted for dedup.
	Skipped []error
}

// A Record is one loaded link of a snapshot chain.
type Record struct {
	Epoch   uint64
	Path    string
	Payload []byte
}

// snapFile is one validated snapshot file.
type snapFile struct {
	epoch   uint64
	path    string
	version byte
	prev    uint64 // the epoch a record follows
	payload []byte
}

// LoadLatest returns the newest checkpoint that validates. Files that
// fail (torn, corrupt, stale-epoch) are recorded in Skipped and passed
// over; valid records are passed over silently, since a record alone is
// not a state. With no snapshot files at all it returns ErrNoSnapshot;
// with files but no valid checkpoint it returns the newest invalid file's
// *SnapshotError.
func (s *Store) LoadLatest() (*LoadResult, error) {
	s.mu.Lock()
	epochs := s.listEpochsLocked()
	s.mu.Unlock()
	if len(epochs) == 0 {
		return nil, ErrNoSnapshot
	}
	var skipped []error
	for i := len(epochs) - 1; i >= 0; i-- {
		f, err := readSnapshotFile(s.dir, epochs[i])
		if err != nil {
			skipped = append(skipped, err)
			continue
		}
		if f.version == snapVersion {
			return &LoadResult{State: f.payload, Epoch: f.epoch, Path: f.path, Skipped: skipped}, nil
		}
	}
	if len(skipped) > 0 {
		return nil, skipped[0]
	}
	return nil, &SnapshotError{Path: s.dir, Reason: "no checkpoint under the records on disk"}
}

// LoadChain returns the newest valid checkpoint plus the valid records
// after it, each following the one before. It reads files from the
// newest down to that checkpoint and no further. The first file after
// the checkpoint that fails validation or does not follow its
// predecessor is a hole: the chain stops there, and Skipped lists the
// hole first and then every later file, oldest first. With no snapshot
// files at all it returns ErrNoSnapshot; with files but no valid
// checkpoint it returns the newest invalid file's *SnapshotError, or one
// naming the missing checkpoint when every file read was a valid record.
func (s *Store) LoadChain() (*LoadResult, error) {
	s.mu.Lock()
	epochs := s.listEpochsLocked()
	s.mu.Unlock()
	if len(epochs) == 0 {
		return nil, ErrNoSnapshot
	}
	// Read backwards to the newest valid checkpoint.
	var (
		files []*snapFile
		errs  []error
		base  *snapFile
	)
	for i := len(epochs) - 1; i >= 0 && base == nil; i-- {
		f, err := readSnapshotFile(s.dir, epochs[i])
		switch {
		case err != nil:
			files, errs = append(files, nil), append(errs, err)
		case f.version == snapVersion:
			base = f
		default:
			files, errs = append(files, f), append(errs, nil)
		}
	}
	if base == nil {
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		oldest := files[len(files)-1]
		return nil, &SnapshotError{Path: filepath.Join(s.dir, SnapshotFileName(oldest.prev)),
			Reason: fmt.Sprintf("missing: the record of epoch %d follows it, and no older checkpoint is valid", oldest.epoch)}
	}
	res := &LoadResult{State: base.payload, Epoch: base.epoch, Path: base.path}
	last := base.epoch
	for i := len(files) - 1; i >= 0; i-- { // oldest first
		f, err := files[i], errs[i]
		if err == nil && f.prev != last {
			err = &SnapshotError{Path: filepath.Join(s.dir, SnapshotFileName(f.prev)),
				Reason: fmt.Sprintf("missing link: the record of epoch %d follows epoch %d, but the chain ends at epoch %d", f.epoch, f.prev, last)}
		}
		if err != nil {
			res.Skipped = append(res.Skipped, err)
			res.Skipped = append(res.Skipped, unreachable(s.dir, epochs[len(epochs)-i:], epochs[len(epochs)-1-i])...)
			break
		}
		res.Records = append(res.Records, Record{Epoch: f.epoch, Path: f.path, Payload: f.payload})
		last = f.epoch
	}
	return res, nil
}

// unreachable reports every file after a chain's hole as skipped.
func unreachable(dir string, epochs []uint64, hole uint64) []error {
	out := make([]error, 0, len(epochs))
	for _, e := range epochs {
		out = append(out, &SnapshotError{Path: filepath.Join(dir, SnapshotFileName(e)),
			Reason: fmt.Sprintf("unreachable: the chain breaks at epoch %d", hole)})
	}
	return out
}

// readSnapshotFile validates one snapshot file end to end: magic,
// version, checksum, exact length, and the epoch-matches-filename rule
// that catches stale replays.
func readSnapshotFile(dir string, wantEpoch uint64) (*snapFile, error) {
	path := filepath.Join(dir, SnapshotFileName(wantEpoch))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, &SnapshotError{Path: path, Reason: "read", Err: err}
	}
	f, reason := parseSnapshotFile(data, wantEpoch)
	if reason != "" {
		return nil, &SnapshotError{Path: path, Reason: reason}
	}
	f.path = path
	return f, nil
}

// parseSnapshotFile validates a snapshot file's bytes; a non-empty
// reason says why they are rejected.
func parseSnapshotFile(data []byte, wantEpoch uint64) (f *snapFile, reason string) {
	if len(data) < snapHeaderLen+snapTrailerLen {
		return nil, fmt.Sprintf("truncated: %d bytes is shorter than the minimal snapshot", len(data))
	}
	body, trailer := data[:len(data)-snapTrailerLen], data[len(data)-snapTrailerLen:]
	if got, want := binary.LittleEndian.Uint64(trailer), crc64.Checksum(body, crcSnap); got != want {
		return nil, fmt.Sprintf("checksum mismatch: file says %016x, content hashes to %016x", got, want)
	}
	if binary.LittleEndian.Uint32(body) != snapMagic {
		return nil, "bad magic"
	}
	f = &snapFile{version: body[4]}
	hdr := snapHeaderLen
	switch f.version {
	case snapVersion:
	case snapRecordVersion:
		hdr = recordHeaderLen
		if len(body) < hdr {
			return nil, fmt.Sprintf("truncated: %d bytes is shorter than the minimal record", len(data))
		}
		f.prev = binary.LittleEndian.Uint64(body[13:])
	default:
		return nil, fmt.Sprintf("unsupported version %d", f.version)
	}
	f.epoch = binary.LittleEndian.Uint64(body[5:])
	if f.epoch != wantEpoch {
		return nil, fmt.Sprintf("stale-epoch replay: file named for epoch %d embeds epoch %d", wantEpoch, f.epoch)
	}
	if f.version == snapRecordVersion && f.prev >= f.epoch {
		return nil, fmt.Sprintf("record of epoch %d claims to follow epoch %d", f.epoch, f.prev)
	}
	payloadLen := int(binary.LittleEndian.Uint32(body[hdr-4:]))
	if payloadLen > MaxSnapshotBytes || payloadLen != len(body)-hdr {
		return nil, fmt.Sprintf("declared payload length %d does not match the %d bytes present", payloadLen, len(body)-hdr)
	}
	f.payload = body[hdr:]
	return f, ""
}

// --- aggregator/relay state payload codec ---
//
// A checkpoint payload is
//
//	magic "SLST" | version | kind | counters | rows | candidates | upstream
//
// and a record payload is
//
//	magic "SLSR" | version | kind | counters | changed rows | new candidates | [upstream]
//
// where rows are (id, gen, seq, cursor, depth, cur, base) in sorted id
// order and the record's upstream section is present only when it
// changed. Rows are never deleted and candidates only ever added, so a
// record replays onto the state before it by overwriting rows, adding
// candidates and replacing the counters and upstream section.

const (
	stateMagic   uint32 = 0x54534c53 // "SLST" little-endian
	recordMagic  uint32 = 0x52534c53 // "SLSR" little-endian
	stateVersion byte   = 1

	stateKindAggregator byte = 0
	stateKindRelay      byte = 1

	// minRowLen is the smallest encoded agent row: a 1-byte id plus its
	// length, three u64s, the depth and two absent-sketch bytes.
	minRowLen = 2 + 1 + 3*8 + 1 + 2
)

// MarshalState serializes the aggregator's durable state — the per-agent
// table (contribution envelopes, generation, seq frontier, cursor,
// depth), the candidate pool, and the protocol counters — as a
// checkpoint payload for Store.Save. The bytes are deterministic: agents
// and candidates are written in sorted order.
func (a *Aggregator) MarshalState() ([]byte, error) {
	return a.marshalState(stateKindAggregator, nil)
}

func (a *Aggregator) marshalState(kind byte, upstream []byte) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.appendStateLocked(kind, &a.stats, upstream)
}

// appendStateLocked encodes a checkpoint payload with the given counters.
func (a *Aggregator) appendStateLocked(kind byte, stats *AggregatorStats, upstream []byte) ([]byte, error) {
	buf := make([]byte, 0, 1<<12)
	buf = appendPayloadHeader(buf, stateMagic, kind, stats)
	ids := make([]string, 0, len(a.agents))
	for id := range a.agents {
		ids = append(ids, id)
	}
	buf, err := a.appendRowsLocked(buf, ids)
	if err != nil {
		return nil, err
	}
	cands := make([]uint64, 0, len(a.candidates))
	for it := range a.candidates {
		cands = append(cands, it)
	}
	buf = appendCandidates(buf, cands)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(upstream)))
	return append(buf, upstream...), nil
}

// appendRecordLocked encodes a record payload: the dirty rows, the
// candidates added since the last saved snapshot, and the upstream
// section when non-nil.
func (a *Aggregator) appendRecordLocked(kind byte, stats *AggregatorStats, upstream []byte) ([]byte, error) {
	buf := make([]byte, 0, 1<<12)
	buf = appendPayloadHeader(buf, recordMagic, kind, stats)
	ids := make([]string, 0, len(a.dirty))
	for id := range a.dirty {
		ids = append(ids, id)
	}
	buf, err := a.appendRowsLocked(buf, ids)
	if err != nil {
		return nil, err
	}
	buf = appendCandidates(buf, append([]uint64(nil), a.newCands...))
	if upstream == nil {
		return append(buf, 0), nil
	}
	buf = append(buf, 1)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(upstream)))
	return append(buf, upstream...), nil
}

func appendPayloadHeader(buf []byte, magic uint32, kind byte, stats *AggregatorStats) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, magic)
	buf = append(buf, stateVersion, kind)
	for _, c := range stats.counters() {
		buf = binary.LittleEndian.AppendUint64(buf, c)
	}
	return buf
}

// appendRowsLocked writes the count and then the rows of the given agents
// in sorted id order (ids is sorted in place).
func (a *Aggregator) appendRowsLocked(buf []byte, ids []string) ([]byte, error) {
	sort.Strings(ids)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		e := a.agents[id]
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(id)))
		buf = append(buf, id...)
		buf = binary.LittleEndian.AppendUint64(buf, e.gen)
		buf = binary.LittleEndian.AppendUint64(buf, e.lastSeq)
		buf = binary.LittleEndian.AppendUint64(buf, e.cursor)
		buf = append(buf, e.depth)
		var err error
		if buf, err = appendOptionalSketch(buf, e.cur); err != nil {
			return nil, err
		}
		if buf, err = appendOptionalSketch(buf, e.base); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// appendCandidates writes the count and then the items in ascending
// order (cands is sorted in place).
func appendCandidates(buf []byte, cands []uint64) []byte {
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cands)))
	for _, it := range cands {
		buf = binary.LittleEndian.AppendUint64(buf, it)
	}
	return buf
}

// appendOptionalSketch writes a presence byte and, when present, a
// length-prefixed universal envelope.
func appendOptionalSketch(buf []byte, s salsa.Sketch) ([]byte, error) {
	if s == nil {
		return append(buf, 0), nil
	}
	env, err := salsa.Marshal(s)
	if err != nil {
		return nil, err
	}
	buf = append(buf, 1)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(env)))
	return append(buf, env...), nil
}

// stateImage is a parsed state payload whose sketches are still
// envelope bytes, so a restore that replays a chain decodes each
// contribution once, from the newest link that carries it.
type stateImage struct {
	kind       byte
	stats      AggregatorStats
	rows       map[string]*rowImage
	candidates map[uint64]struct{}
	// upstream is the relay's upstream section; nil when a record does
	// not carry one.
	upstream []byte
}

// rowImage is one agent row with its contributions as envelopes (nil
// when absent).
type rowImage struct {
	gen, seq, cursor uint64
	depth            byte
	cur, base        []byte
}

// parseImage parses a checkpoint payload, or a record payload when
// record is set, checking every length against the bytes present and
// every envelope against maxEnvelope before anything is allocated for
// it. Sketches are not decoded.
func parseImage(data []byte, record bool, maxEnvelope int) (*stateImage, error) {
	what, magic := "state payload", stateMagic
	if record {
		what, magic = "record payload", recordMagic
	}
	r := frameReader{data: data}
	if r.u32() != magic {
		return nil, &SnapshotError{Reason: what + ": bad magic"}
	}
	if v := r.u8(); v != stateVersion {
		return nil, &SnapshotError{Reason: fmt.Sprintf("%s: unsupported version %d", what, v)}
	}
	img := &stateImage{kind: r.u8()}
	if img.kind != stateKindAggregator && img.kind != stateKindRelay {
		return nil, &SnapshotError{Reason: fmt.Sprintf("%s: unknown role kind %d", what, img.kind)}
	}
	img.stats.setCounters(&r)

	nRows := int(r.u32())
	if r.err != nil || nRows > (len(data)-r.pos)/minRowLen {
		return nil, &SnapshotError{Reason: what + ": truncated header"}
	}
	img.rows = make(map[string]*rowImage, nRows)
	for i := 0; i < nRows; i++ {
		idLen := int(r.u16())
		if idLen == 0 || idLen > MaxAgentIDLen {
			return nil, &SnapshotError{Reason: fmt.Sprintf("%s: agent id length %d outside [1,%d]", what, idLen, MaxAgentIDLen)}
		}
		idBytes := r.take(idLen)
		row := &rowImage{gen: r.u64(), seq: r.u64(), cursor: r.u64(), depth: r.u8()}
		var err error
		if row.cur, err = readOptionalEnvelope(&r, maxEnvelope); err != nil {
			return nil, err
		}
		if row.base, err = readOptionalEnvelope(&r, maxEnvelope); err != nil {
			return nil, err
		}
		if r.err != nil {
			return nil, &SnapshotError{Reason: what + ": truncated agent row"}
		}
		id := string(idBytes)
		if _, dup := img.rows[id]; dup {
			return nil, &SnapshotError{Reason: fmt.Sprintf("%s: agent %q appears twice", what, id)}
		}
		img.rows[id] = row
	}

	nCand := int(r.u32())
	if r.err != nil || nCand > (len(data)-r.pos)/8 {
		return nil, &SnapshotError{Reason: what + ": truncated candidate pool"}
	}
	img.candidates = make(map[uint64]struct{}, nCand)
	for i := 0; i < nCand; i++ {
		img.candidates[r.u64()] = struct{}{}
	}

	if !record || r.u8() == 1 {
		upLen := int(r.u32())
		img.upstream = r.take(upLen)
	}
	if r.err != nil || r.pos != len(r.data) {
		return nil, &SnapshotError{Reason: what + ": truncated or oversized trailer"}
	}
	return img, nil
}

// apply replays a record onto the image of the state before it.
func (img *stateImage) apply(rec *stateImage) error {
	if rec.kind != img.kind {
		return &SnapshotError{Reason: fmt.Sprintf("record payload: role kind %d follows a kind %d checkpoint", rec.kind, img.kind)}
	}
	img.stats = rec.stats
	maps.Copy(img.rows, rec.rows)
	maps.Copy(img.candidates, rec.candidates)
	if rec.upstream != nil {
		img.upstream = rec.upstream
	}
	return nil
}

// readOptionalEnvelope reads a presence byte plus a length-prefixed
// envelope, bounded by maxEnvelope; nil means absent.
func readOptionalEnvelope(r *frameReader, maxEnvelope int) ([]byte, error) {
	if r.u8() == 0 {
		return nil, nil
	}
	envLen := int(r.u32())
	if envLen <= 0 || envLen > maxEnvelope {
		if r.err != nil {
			return nil, &SnapshotError{Reason: "state payload: truncated envelope"}
		}
		return nil, &SnapshotError{Reason: fmt.Sprintf("state payload: envelope of %d bytes outside (0,%d]", envLen, maxEnvelope)}
	}
	env := r.take(envLen)
	if env == nil {
		return nil, &SnapshotError{Reason: "state payload: truncated envelope"}
	}
	return env, nil
}

// restoreState rebuilds the aggregator table from a checkpoint payload,
// replacing all current state. Every decoded sketch is checked for
// compatibility against the configured reference topology, so a snapshot
// from a differently-configured cluster is rejected rather than merged.
// It returns the role kind the snapshot was written by and the opaque
// upstream section (empty for aggregator snapshots).
func (a *Aggregator) restoreState(data []byte) (kind byte, upstream []byte, err error) {
	img, err := parseImage(data, false, a.maxEnvelope)
	if err != nil {
		return 0, nil, err
	}
	if err := a.install(img); err != nil {
		return 0, nil, err
	}
	return img.kind, img.upstream, nil
}

// install decodes an image's contributions and swaps it in as the whole
// table. The installed state is what the disk holds, so nothing is
// dirty afterwards.
func (a *Aggregator) install(img *stateImage) error {
	agents := make(map[string]*agentEntry, len(img.rows))
	for id, row := range img.rows {
		e := &agentEntry{gen: row.gen, lastSeq: row.seq, cursor: row.cursor, depth: row.depth}
		var err error
		if e.cur, err = a.decodeContribution(row.cur); err != nil {
			return err
		}
		if e.base, err = a.decodeContribution(row.base); err != nil {
			return err
		}
		agents[id] = e
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	for _, e := range agents {
		e.lastSeen = now
	}
	a.agents = agents
	a.candidates = img.candidates
	a.stats = img.stats
	a.dirty = make(map[string]uint64)
	a.newCands = nil
	return nil
}

// readOptionalSketch reads a presence byte plus envelope and decodes it,
// verifying merge compatibility against the reference topology.
func (a *Aggregator) readOptionalSketch(r *frameReader) (salsa.Sketch, error) {
	env, err := readOptionalEnvelope(r, a.maxEnvelope)
	if err != nil {
		return nil, err
	}
	return a.decodeContribution(env)
}

// decodeContribution decodes a persisted envelope (nil: absent) into its
// delta core, verifying merge compatibility against the reference
// topology.
func (a *Aggregator) decodeContribution(env []byte) (salsa.Sketch, error) {
	if env == nil {
		return nil, nil
	}
	decoded, err := salsa.Unmarshal(env)
	if err != nil {
		return nil, &SnapshotError{Reason: "state payload: undecodable envelope", Err: err}
	}
	core, err := salsa.DeltaCore(decoded)
	if err != nil {
		return nil, &SnapshotError{Reason: "state payload: envelope has no delta core", Err: err}
	}
	if err := salsa.MergeInto(core, a.ref); err != nil {
		return nil, &SnapshotError{Reason: "state payload: envelope incompatible with the configured topology", Err: err}
	}
	return core, nil
}

// counters returns the stats fields in the fixed snapshot order; keep in
// sync with setCounters (append-only: new fields bump stateVersion).
func (s *AggregatorStats) counters() []uint64 {
	return []uint64{
		s.Applied, s.Duplicates, s.Resyncs, s.Heartbeats,
		s.Rejected, s.CandidatesDropped, s.Persists, s.PersistErrors,
	}
}

func (s *AggregatorStats) setCounters(r *frameReader) {
	s.Applied, s.Duplicates, s.Resyncs, s.Heartbeats = r.u64(), r.u64(), r.u64(), r.u64()
	s.Rejected, s.CandidatesDropped, s.Persists, s.PersistErrors = r.u64(), r.u64(), r.u64(), r.u64()
}

// --- persisting ---

// A stateCut is one persist's capture: the payload of the file to write
// and the dirtiness it covers, which is cleared once the file is saved.
type stateCut struct {
	payload    []byte
	checkpoint bool
	// applied is the applied-frame counter the payload reflects.
	applied uint64
	// rows maps each dirty row the payload carries to its change stamp;
	// cands counts the new candidates it carries.
	rows  map[string]uint64
	cands int
	// saved runs under the persistor's lock after the file is on disk.
	saved func(epoch uint64)
}

// capture encodes the payload of one persist under the aggregator lock:
// the whole table for a checkpoint, only the dirty rows and new
// candidates for a record. upstream is a relay's upstream section (nil
// for an aggregator, and for a relay record whose section is unchanged).
// The payload's counters include the snapshot being written, so a
// restored node counts every snapshot its predecessors wrote.
func (a *Aggregator) capture(kind byte, checkpoint bool, upstream []byte) (*stateCut, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	stats := a.stats
	stats.Persists++
	cut := &stateCut{checkpoint: checkpoint, applied: a.stats.Applied, rows: maps.Clone(a.dirty), cands: len(a.newCands)}
	var err error
	if checkpoint {
		cut.payload, err = a.appendStateLocked(kind, &stats, upstream)
	} else {
		cut.payload, err = a.appendRecordLocked(kind, &stats, upstream)
	}
	if err != nil {
		return nil, err
	}
	cut.saved = func(epoch uint64) { a.saved(cut, epoch) }
	return cut, nil
}

// saved clears the dirtiness a saved cut covered — rows changed again
// since the capture stay dirty — and records the snapshot.
func (a *Aggregator) saved(cut *stateCut, epoch uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for id, stamp := range cut.rows {
		if a.dirty[id] == stamp {
			delete(a.dirty, id)
		}
	}
	a.newCands = a.newCands[:copy(a.newCands, a.newCands[cut.cands:])]
	a.snapEpoch = epoch
	a.snapAt = a.now()
	a.persistedApplied = cut.applied
	a.stats.Persists++
}

// allDirty reports whether every row changed since the last snapshot, so
// a record would carry the whole table.
func (a *Aggregator) allDirty() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.dirty) == len(a.agents)
}

// persistor serializes capture+save cycles so snapshot epochs are
// written in content order even when Persist is called from several
// goroutines (the HTTP apply path and a relay's upstream loop), and
// decides for each whether it is a checkpoint or a record.
type persistor struct {
	mu    sync.Mutex
	store *Store
	every int
	agg   *Aggregator
	// state captures the next file's payload: a checkpoint when full is
	// set, a record otherwise. It is the aggregator's capture for a
	// standalone aggregator, the relay's table+upstream capture for a
	// relay.
	state func(full bool) (*stateCut, error)

	// last is the epoch of the newest link of the chain on disk, 0 when
	// there is no chain a record could extend; ckptBytes is the size of
	// the chain's checkpoint file and chainBytes the total size of the
	// records after it.
	last                  uint64
	ckptBytes, chainBytes int
}

// persist runs one capture+save cycle, writing exactly one file. It is a
// record unless there is no chain to extend, every row changed, or the
// chain's records would outweigh its checkpoint; then it is a
// checkpoint, which starts a new chain.
func (p *persistor) persist() (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	full := p.last == 0 || p.last != p.store.Epoch() || p.agg.allDirty()
	cut, err := p.state(full)
	if err != nil {
		return 0, err
	}
	if !cut.checkpoint && p.chainBytes+snapFileLen(snapRecordVersion, len(cut.payload)) > p.ckptBytes {
		if cut, err = p.state(true); err != nil {
			return 0, err
		}
	}
	var epoch uint64
	if cut.checkpoint {
		epoch, err = p.store.Save(cut.payload)
	} else {
		epoch, err = p.store.saveRecord(p.last, cut.payload)
	}
	if err != nil {
		return 0, err
	}
	if cut.checkpoint {
		p.ckptBytes, p.chainBytes = snapFileLen(snapVersion, len(cut.payload)), 0
	} else {
		p.chainBytes += snapFileLen(snapRecordVersion, len(cut.payload))
	}
	p.last = epoch
	cut.saved(epoch)
	return epoch, nil
}

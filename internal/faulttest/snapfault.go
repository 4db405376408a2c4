package faulttest

// Disk-fault injection for the snapshot store: deterministic corruptions
// of on-disk snapshot files, modeling what crashes, bad sectors, and
// operator mistakes actually produce. Each helper returns the path it
// damaged so tests can assert the typed rejection names the right file.

import (
	"os"
	"path/filepath"
	"sort"

	"salsa/internal/salsad"
)

// snapshotEpochs lists the epochs of every named snapshot file under dir
// in ascending order.
func snapshotEpochs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var epochs []uint64
	for _, ent := range entries {
		if e, ok := salsad.ParseSnapshotFileName(ent.Name()); ok {
			epochs = append(epochs, e)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	return epochs, nil
}

// latestSnapshot returns the path and epoch of the newest snapshot file.
func latestSnapshot(dir string) (string, uint64, error) {
	epochs, err := snapshotEpochs(dir)
	if err != nil {
		return "", 0, err
	}
	if len(epochs) == 0 {
		return "", 0, os.ErrNotExist
	}
	e := epochs[len(epochs)-1]
	return filepath.Join(dir, salsad.SnapshotFileName(e)), e, nil
}

// CorruptLatestSnapshot flips one bit in the middle of the newest
// snapshot file — a torn write or bad sector. The checksum must reject
// it.
func CorruptLatestSnapshot(dir string) (string, error) {
	path, _, err := latestSnapshot(dir)
	if err != nil {
		return "", err
	}
	return path, flipMiddleBit(path)
}

// flipMiddleBit flips one bit in the middle of the file at path.
func flipMiddleBit(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	data[len(data)/2] ^= 0x40
	return os.WriteFile(path, data, 0o644)
}

// SnapshotChain returns the chain a restore of dir would load: the epoch
// of its checkpoint and the epochs of the records after it, oldest first.
// Opening the store sweeps leftover .tmp files, as a restart would.
func SnapshotChain(dir string) (checkpoint uint64, records []uint64, err error) {
	store, err := salsad.OpenStore(dir)
	if err != nil {
		return 0, nil, err
	}
	res, err := store.LoadChain()
	if err != nil {
		return 0, nil, err
	}
	for _, r := range res.Records {
		records = append(records, r.Epoch)
	}
	return res.Epoch, records, nil
}

// CorruptSnapshot flips one bit in the middle of the snapshot file of the
// given epoch — a bad sector under one link of a chain. The checksum must
// reject it, and a restore must stop there.
func CorruptSnapshot(dir string, epoch uint64) (string, error) {
	path := filepath.Join(dir, salsad.SnapshotFileName(epoch))
	return path, flipMiddleBit(path)
}

// DeleteSnapshot removes the snapshot file of the given epoch — a link
// lost to an operator or a filesystem. A restore must stop at the gap.
func DeleteSnapshot(dir string, epoch uint64) (string, error) {
	path := filepath.Join(dir, salsad.SnapshotFileName(epoch))
	return path, os.Remove(path)
}

// CorruptAllSnapshots flips a bit in every snapshot file under dir — a
// dying disk taking the whole directory with it. Restores must fail with
// a typed error rather than load garbage.
func CorruptAllSnapshots(dir string) ([]string, error) {
	epochs, err := snapshotEpochs(dir)
	if err != nil {
		return nil, err
	}
	if len(epochs) == 0 {
		return nil, os.ErrNotExist
	}
	var paths []string
	for _, e := range epochs {
		path, err := CorruptSnapshot(dir, e)
		if err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// TruncateLatestSnapshot cuts the newest snapshot file to half its
// length — a crash mid-write that somehow still got the file named (e.g.
// a non-atomic copy by an operator). The length/checksum checks must
// reject it.
func TruncateLatestSnapshot(dir string) (string, error) {
	path, _, err := latestSnapshot(dir)
	if err != nil {
		return "", err
	}
	info, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	return path, os.Truncate(path, info.Size()/2)
}

// ReplayStaleSnapshot copies the oldest snapshot's bytes under a
// newer-than-newest file name — a backup restored into a live data dir.
// The embedded epoch no longer matches the filename, so the store must
// reject it as a stale-epoch replay rather than silently rewinding state.
func ReplayStaleSnapshot(dir string) (string, error) {
	epochs, err := snapshotEpochs(dir)
	if err != nil {
		return "", err
	}
	if len(epochs) == 0 {
		return "", os.ErrNotExist
	}
	oldest := filepath.Join(dir, salsad.SnapshotFileName(epochs[0]))
	data, err := os.ReadFile(oldest)
	if err != nil {
		return "", err
	}
	forged := filepath.Join(dir, salsad.SnapshotFileName(epochs[len(epochs)-1]+1))
	return forged, os.WriteFile(forged, data, 0o644)
}

// TornTmpSnapshot drops a half-written .tmp file into the data dir — a
// crash during snapshot assembly, before the atomic rename. It must be
// invisible to loads and swept by the next OpenStore.
func TornTmpSnapshot(dir string) (string, error) {
	_, epoch, err := latestSnapshot(dir)
	if err != nil && !os.IsNotExist(err) {
		return "", err
	}
	path := filepath.Join(dir, salsad.SnapshotFileName(epoch+1)+".tmp")
	return path, os.WriteFile(path, []byte("torn mid-wri"), 0o644)
}

// Persistent content-addressed cell cache: the on-disk second level
// behind CellMemo / BatteryMemo. A record is keyed by the same
// sha256(config|profile|ops) content key the in-memory memo uses, and
// is a sealed record (internal/record) whose payload is the value's
// JSON, under a format/engine version stamp, so a warm -memodir run of
// the experiment grids replays results instead of simulating — and any
// record that is truncated, bit-flipped, or written by a different
// simulator version is rejected and transparently recomputed (then
// overwritten), never trusted.
package harness

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"secpb/internal/engine"
	"secpb/internal/record"
	"secpb/internal/runner"
)

// cacheMagic opens every record file.
const cacheMagic = "SPBC"

// CorruptCacheError reports a cache record that failed validation:
// bad magic, failed checksum, stale version stamp, or a payload that
// does not decode cleanly. It is typed (mirroring nvm's
// CorruptStateError discipline) so tests and tooling can distinguish
// "the cache is damaged" from an ordinary miss; the memo path treats
// both identically — fall back to simulation and rewrite.
type CorruptCacheError struct {
	Path   string
	Detail string
}

func (e *CorruptCacheError) Error() string {
	return fmt.Sprintf("harness: corrupt cache record %s: %s", e.Path, e.Detail)
}

// DiskStoreStats counts one store's activity.
type DiskStoreStats struct {
	Hits    uint64 // records served
	Misses  uint64 // absent records
	Corrupt uint64 // records rejected (checksum/version/decode)
	Saves   uint64 // records written
}

// diskStore is the shared record machinery: one file per key under
// dir, record = magic | kind+version stamp | JSON payload | seal.
// Writes go through record.WriteAtomic without fsync, so a crashed or
// concurrent writer can never expose a half-written record (it would
// fail the seal anyway and be recomputed); a record lost to power
// failure is only a miss.
type diskStore[V any] struct {
	dir  string
	kind string          // format discriminator + engine.ResultsVersion
	skip func(v *V) bool // veto persisting this value (may be nil)

	mu    sync.Mutex
	stats DiskStoreStats
}

func (s *diskStore[V]) path(key CellKey) string {
	return filepath.Join(s.dir, hex.EncodeToString(key[:])+".spbc")
}

// Load implements runner.MemoStore: any unusable record is a miss.
func (s *diskStore[V]) Load(key CellKey) (V, bool) {
	v, err := s.load(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		s.stats.Hits++
		return v, true
	case os.IsNotExist(err):
		s.stats.Misses++
	default:
		s.stats.Corrupt++
	}
	var zero V
	return zero, false
}

// load reads and validates one record, returning a *CorruptCacheError
// for anything structurally wrong with an existing file. The payload
// must re-encode to exactly its own bytes: a record that lacks a field
// (written before the field existed) or carries an unknown one is
// rejected rather than zero-filled.
func (s *diskStore[V]) load(key CellKey) (V, error) {
	var v V
	path := s.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return v, err
	}
	payload, err := record.Open(cacheMagic, s.kind, raw)
	if err != nil {
		return v, &CorruptCacheError{Path: path, Detail: err.Error()}
	}
	if err := json.Unmarshal(payload, &v); err != nil {
		return v, &CorruptCacheError{Path: path, Detail: "payload does not decode: " + err.Error()}
	}
	if again, err := json.Marshal(v); err != nil || !bytes.Equal(again, payload) {
		return v, &CorruptCacheError{Path: path, Detail: "payload does not re-encode to itself"}
	}
	return v, nil
}

// Save implements runner.MemoStore. Failures are silent: the cache is
// an accelerator, and a value that fails to persist simply gets
// recomputed next run.
func (s *diskStore[V]) Save(key CellKey, v V) {
	if s.skip != nil && s.skip(&v) {
		return
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return
	}
	if record.WriteFile(s.path(key), record.Seal(cacheMagic, s.kind, payload), false) != nil {
		return
	}
	s.mu.Lock()
	s.stats.Saves++
	s.mu.Unlock()
}

// Stats returns the store's cumulative activity.
func (s *diskStore[V]) Stats() DiskStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// DiskCellStore persists engine.Result cells; attach with
// CellMemo.SetStore. Results carrying an integrity error are never
// persisted — a violated run must always resimulate.
type DiskCellStore struct {
	diskStore[engine.Result]
}

var _ runner.MemoStore[CellKey, engine.Result] = (*DiskCellStore)(nil)

// NewDiskCellStore opens (creating if needed) a cell cache directory.
func NewDiskCellStore(dir string) (*DiskCellStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DiskCellStore{diskStore[engine.Result]{
		dir:  dir,
		kind: "cell-json/" + engine.ResultsVersion,
		skip: func(r *engine.Result) bool { return r.IntegrityErr != nil },
	}}, nil
}

// DiskBatteryStore persists multicore BatteryCell cells; attach with
// BatteryMemo.SetStore.
type DiskBatteryStore struct {
	diskStore[BatteryCell]
}

var _ runner.MemoStore[CellKey, BatteryCell] = (*DiskBatteryStore)(nil)

// NewDiskBatteryStore opens (creating if needed) a battery-cell cache
// directory.
func NewDiskBatteryStore(dir string) (*DiskBatteryStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DiskBatteryStore{diskStore[BatteryCell]{
		dir:  dir,
		kind: "battery-json/" + engine.ResultsVersion,
	}}, nil
}

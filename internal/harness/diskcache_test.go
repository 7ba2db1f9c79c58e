package harness

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"secpb/internal/config"
	"secpb/internal/engine"
	"secpb/internal/record"
	"secpb/internal/workload"
)

// cacheFixture returns a cell store with one persisted result and the
// inputs that key it.
func cacheFixture(t *testing.T) (*DiskCellStore, CellKey, engine.Result) {
	t.Helper()
	store, err := NewDiskCellStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default().WithScheme(config.SchemeCOBCM)
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunBenchmark(cfg, prof, 2000)
	if err != nil {
		t.Fatal(err)
	}
	key := cellKey(cfg, prof, 2000)
	store.Save(key, res)
	return store, key, res
}

// recordPath returns the single record file the fixture wrote.
func recordPath(t *testing.T, store *DiskCellStore, key CellKey) string {
	t.Helper()
	p := store.path(key)
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("expected record at %s: %v", p, err)
	}
	return p
}

func TestDiskCellStoreRoundTrip(t *testing.T) {
	store, key, want := cacheFixture(t)
	got, ok := store.Load(key)
	if !ok {
		t.Fatal("negative control failed: intact record did not load")
	}
	if got != want {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if s := store.Stats(); s.Hits != 1 || s.Corrupt != 0 || s.Saves != 1 {
		t.Fatalf("unexpected stats %+v", s)
	}
}

func TestDiskCellStoreRejectsTruncatedRecord(t *testing.T) {
	store, key, _ := cacheFixture(t)
	p := recordPath(t, store, key)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load(key); ok {
		t.Fatal("truncated record loaded")
	}
	var corrupt *CorruptCacheError
	if _, err := store.load(key); !errors.As(err, &corrupt) {
		t.Fatalf("want *CorruptCacheError for truncated record, got %v", err)
	}
	if s := store.Stats(); s.Corrupt != 1 {
		t.Fatalf("corrupt record not counted: %+v", s)
	}
}

func TestDiskCellStoreRejectsFlippedChecksumByte(t *testing.T) {
	store, key, _ := cacheFixture(t)
	p := recordPath(t, store, key)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte: the seal no longer matches.
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load(key); ok {
		t.Fatal("bit-flipped record loaded")
	}
	var corrupt *CorruptCacheError
	if _, err := store.load(key); !errors.As(err, &corrupt) {
		t.Fatalf("want *CorruptCacheError for flipped byte, got %v", err)
	}
}

func TestDiskCellStoreRejectsStaleVersionStamp(t *testing.T) {
	store, key, res := cacheFixture(t)
	p := recordPath(t, store, key)
	// Re-save the same value under a stale stamp (a record written by
	// an older simulator): a correctly sealed record must still be
	// rejected on the version check alone.
	stale := &DiskCellStore{diskStore[engine.Result]{
		dir: store.dir, kind: "cell-json/secpb-results-v0",
	}}
	stale.Save(key, res)
	if _, err := os.Stat(p); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load(key); ok {
		t.Fatal("stale-version record loaded")
	}
	var corrupt *CorruptCacheError
	if _, err := store.load(key); !errors.As(err, &corrupt) {
		t.Fatalf("want *CorruptCacheError for stale version, got %v", err)
	}
}

// TestMemoFallsBackToSimulationOnCorruptRecord is the end-to-end
// contract: a memo backed by a damaged store recomputes the cell,
// returns the correct value, and rewrites the record.
func TestMemoFallsBackToSimulationOnCorruptRecord(t *testing.T) {
	store, key, want := cacheFixture(t)
	p := recordPath(t, store, key)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01 // break the seal itself
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	memo := NewCellMemo()
	memo.SetStore(store)
	simulated := false
	got, hit, err := memo.Do(key, func() (engine.Result, error) {
		simulated = true
		return want, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit || !simulated {
		t.Fatalf("corrupt record served as a hit (hit=%v simulated=%v)", hit, simulated)
	}
	if got != want {
		t.Fatalf("fallback result mismatch: %+v", got)
	}
	// The recomputed value must have been rewritten, and be loadable.
	if reread, ok := store.Load(key); !ok || reread != want {
		t.Fatalf("record not rewritten after fallback (ok=%v)", ok)
	}
	if hits, saves := memo.StoreStats(); hits != 0 || saves != 1 {
		t.Fatalf("unexpected memo store stats hits=%d saves=%d", hits, saves)
	}
}

// TestDiskCellStoreSkipsIntegrityViolations: a result carrying an
// integrity error must never be persisted.
func TestDiskCellStoreSkipsIntegrityViolations(t *testing.T) {
	store, err := NewDiskCellStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var key CellKey
	key[0] = 0xab
	store.Save(key, engine.Result{IntegrityErr: errors.New("tampered")})
	if _, statErr := os.Stat(store.path(key)); !os.IsNotExist(statErr) {
		t.Fatal("integrity-violated result was persisted")
	}
	if _, ok := store.Load(key); ok {
		t.Fatal("integrity-violated result loaded")
	}
}

// TestDiskBatteryStoreRoundTrip covers the second record codec.
func TestDiskBatteryStoreRoundTrip(t *testing.T) {
	store, err := NewDiskBatteryStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := BatteryCell{
		Scheme: "COBCM", Cores: 8, WorstCaseJ: 1.5, MeasuredJ: 0.25,
		PeakEntries: 96, SuperCapMM3: 12.5, LiThinMM3: 3.25,
		AggIPC: 4.75, Migrations: 17, ReadFlushes: 5,
	}
	var key CellKey
	key[0] = 0xcd
	store.Save(key, want)
	got, ok := store.Load(key)
	if !ok || got != want {
		t.Fatalf("battery round trip mismatch (ok=%v): %+v", ok, got)
	}
	// Cell and battery records share a directory but not a stamp: a
	// cell store must reject a battery record outright.
	cellStore := &DiskCellStore{diskStore[engine.Result]{
		dir: store.dir, kind: "cell-json/" + engine.ResultsVersion,
	}}
	if _, ok := cellStore.Load(key); ok {
		t.Fatal("cell store loaded a battery record")
	}
}

// TestDiskStoreFilenameIsContentKey pins the on-disk naming: one
// record per key, named by the hex content key.
func TestDiskStoreFilenameIsContentKey(t *testing.T) {
	store, key, _ := cacheFixture(t)
	p := recordPath(t, store, key)
	if filepath.Dir(p) != store.dir {
		t.Fatalf("record outside store dir: %s", p)
	}
	ents, err := os.ReadDir(store.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("want exactly one record file, got %d", len(ents))
	}
}

// TestDiskCellStoreRejectsWrappingStringLength: a sealed record whose
// kind length is near 2^64 must be a typed corrupt record and a
// resimulation, never a panic. The first record uses the earlier cache
// format (u64 length, FNV-64a seal), where pos+length wrapped past the
// bound check and sliced out of range; it now fails the seal. The
// second passes the current seal, so the length reaches the reader's
// bound.
func TestDiskCellStoreRejectsWrappingStringLength(t *testing.T) {
	const wrap = 1<<64 - 8
	old := binary.LittleEndian.AppendUint64([]byte(cacheMagic), wrap)
	h := fnv.New64a()
	h.Write(old)
	old = binary.LittleEndian.AppendUint64(old, h.Sum64())
	cur := binary.AppendUvarint([]byte(cacheMagic), wrap)
	cur = binary.LittleEndian.AppendUint64(cur, record.Sum(cur))

	for name, raw := range map[string][]byte{"fnv64a/u64": old, "service/uvarint": cur} {
		store, err := NewDiskCellStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var key CellKey
		if err := os.WriteFile(store.path(key), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var corrupt *CorruptCacheError
		if _, err := store.load(key); !errors.As(err, &corrupt) {
			t.Fatalf("%s: want *CorruptCacheError, got %v", name, err)
		}
		memo := NewCellMemo()
		memo.SetStore(store)
		want := engine.Result{Benchmark: "gcc", Cycles: 7}
		got, hit, err := memo.Do(key, func() (engine.Result, error) { return want, nil })
		if err != nil || hit || got != want {
			t.Fatalf("%s: memo did not resimulate (hit=%v err=%v): %+v", name, hit, err, got)
		}
	}
}

// fillDistinct sets every exported field of the struct v points to a
// distinct non-zero value (a valid name for config.Scheme), except the
// named fields, and fails on a field kind it does not know.
func fillDistinct(t *testing.T, v any, except ...string) {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f, sf := rv.Field(i), rv.Type().Field(i)
		switch {
		case slices.Contains(except, sf.Name):
		case sf.Type == reflect.TypeOf(config.Scheme(0)):
			f.Set(reflect.ValueOf(config.SchemeCOBCM))
		case f.CanInt():
			f.SetInt(-1 - int64(i))
		case f.CanUint():
			f.SetUint(1<<63 + uint64(i))
		case f.CanFloat():
			f.SetFloat(float64(i) + 1.0/3)
		case f.Kind() == reflect.String:
			f.SetString(fmt.Sprintf("field-%d", i))
		default:
			t.Fatalf("%s.%s: no distinct value for kind %s", rv.Type(), sf.Name, f.Kind())
		}
	}
}

// TestDiskStoresRoundTripEveryField: every field of engine.Result and
// BatteryCell survives Save then Load exactly, so a new field needs no
// codec change (IntegrityErr is never saved).
func TestDiskStoresRoundTripEveryField(t *testing.T) {
	var key CellKey
	key[0] = 0xef

	var res engine.Result
	fillDistinct(t, &res, "IntegrityErr")
	cells, err := NewDiskCellStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells.Save(key, res)
	if got, ok := cells.Load(key); !ok || got != res {
		t.Fatalf("Result round trip (ok=%v):\n got %#v\nwant %#v", ok, got, res)
	}

	var cell BatteryCell
	fillDistinct(t, &cell)
	batteries, err := NewDiskBatteryStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	batteries.Save(key, cell)
	if got, ok := batteries.Load(key); !ok || got != cell {
		t.Fatalf("BatteryCell round trip (ok=%v):\n got %+v\nwant %+v", ok, got, cell)
	}
}

// TestDiskCellStoreRejectsMissingField: a sealed, correctly stamped
// record whose JSON lacks a field (one written before the field was
// added) is corrupt, not a zero-filled hit.
func TestDiskCellStoreRejectsMissingField(t *testing.T) {
	store, key, _ := cacheFixture(t)
	payload := []byte(`{"Benchmark":"gcc","Cycles":1}`)
	if err := os.WriteFile(store.path(key), record.Seal(cacheMagic, store.kind, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	var corrupt *CorruptCacheError
	if _, err := store.load(key); !errors.As(err, &corrupt) {
		t.Fatalf("want *CorruptCacheError for a record missing fields, got %v", err)
	}
}

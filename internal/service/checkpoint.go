package service

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"secpb/internal/engine"
)

// Checkpoint manifest format — the same sealed-record discipline as
// harness/diskcache: magic, a kind+version stamp, a fixed payload, and
// a trailing seal over everything before it (the service hash of
// result.go, not diskcache's FNV-64a), written to a temp
// file and atomically renamed into place. A manifest is tiny on
// purpose: the durable session state is the append-only segment log,
// and the manifest just seals a *cursor* into it (byte offset, segment
// count, log hash chain, engine state digest). Resume replays the log
// prefix the manifest names and refuses to proceed unless every seal,
// chain, and digest agrees — there is no partial restore.
const (
	ckptMagic = "SPBK"
	ckptFile  = "ckpt.spbk"
	logFile   = "trace.spb2"
	resFile   = "result.json"
)

// ckptKind stamps manifests with the service layout version and the
// engine results version: either changing makes old checkpoints
// unreadable (typed refusal), never silently misinterpreted.
const ckptKind = "session-ckpt-v1/" + engine.ResultsVersion

// Session lifecycle states persisted in the manifest.
const (
	ckptStateActive    = 1 // accepting segments
	ckptStateFinalized = 2 // result.json sealed; log closed
)

// CorruptCheckpointError reports a session checkpoint (manifest, log,
// or result artifact) that fails verification. The server treats it as
// grounds for quarantine: the session directory is moved aside and the
// name becomes available for a clean session.
type CorruptCheckpointError struct {
	Path   string
	Detail string
}

func (e *CorruptCheckpointError) Error() string {
	return fmt.Sprintf("service: corrupt checkpoint %s: %s", e.Path, e.Detail)
}

// manifest is a session's sealed durable cursor.
type manifest struct {
	Spec         Spec
	State        uint64 // ckptStateActive | ckptStateFinalized
	Segs         uint64 // segments durably applied
	Ops          uint64 // operations durably applied
	LogBytes     uint64 // durable byte length of the segment log (incl. header)
	Chain        uint64 // service-hash chain over log bytes [SPB2HeaderLen, LogBytes)
	Digest       uint64 // StateDigest of the engine after Segs segments
	ResultDigest uint64 // service hash of result.json (finalized manifests only)
}

func (m *manifest) encode() []byte {
	var buf []byte
	buf = append(buf, ckptMagic...)
	buf = appendStr(buf, ckptKind)
	buf = appendStr(buf, m.Spec.Name)
	buf = appendStr(buf, m.Spec.Scheme)
	buf = appendStr(buf, m.Spec.Bench)
	buf = binary.LittleEndian.AppendUint64(buf, m.Spec.Seed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Spec.Entries))
	buf = binary.LittleEndian.AppendUint64(buf, m.State)
	buf = binary.LittleEndian.AppendUint64(buf, m.Segs)
	buf = binary.LittleEndian.AppendUint64(buf, m.Ops)
	buf = binary.LittleEndian.AppendUint64(buf, m.LogBytes)
	buf = binary.LittleEndian.AppendUint64(buf, m.Chain)
	buf = binary.LittleEndian.AppendUint64(buf, m.Digest)
	buf = binary.LittleEndian.AppendUint64(buf, m.ResultDigest)
	seal := fnvUpdate(fnvInit(), buf)
	return binary.LittleEndian.AppendUint64(buf, seal)
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decodeManifest verifies the seal, magic, and kind stamp before
// trusting a single payload byte, mirroring diskStore.load.
func decodeManifest(path string, raw []byte) (*manifest, error) {
	bad := func(detail string) (*manifest, error) {
		return nil, &CorruptCheckpointError{Path: path, Detail: detail}
	}
	if len(raw) < len(ckptMagic)+8 {
		return bad(fmt.Sprintf("short manifest: %d bytes", len(raw)))
	}
	body, tail := raw[:len(raw)-8], raw[len(raw)-8:]
	if got, want := binary.LittleEndian.Uint64(tail), fnvUpdate(fnvInit(), body); got != want {
		return bad(fmt.Sprintf("seal mismatch: stored %016x computed %016x", got, want))
	}
	if string(body[:len(ckptMagic)]) != ckptMagic {
		return bad("bad magic")
	}
	r := manifestReader{buf: body[len(ckptMagic):], path: path}
	kind := r.str()
	if r.err == nil && kind != ckptKind {
		return bad(fmt.Sprintf("kind stamp %q (want %q)", kind, ckptKind))
	}
	var m manifest
	m.Spec.Name = r.str()
	m.Spec.Scheme = r.str()
	m.Spec.Bench = r.str()
	m.Spec.Seed = r.u64()
	m.Spec.Entries = int(r.u64())
	m.State = r.u64()
	m.Segs = r.u64()
	m.Ops = r.u64()
	m.LogBytes = r.u64()
	m.Chain = r.u64()
	m.Digest = r.u64()
	m.ResultDigest = r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return bad(fmt.Sprintf("%d trailing bytes after payload", len(r.buf)))
	}
	if m.State != ckptStateActive && m.State != ckptStateFinalized {
		return bad(fmt.Sprintf("unknown session state %d", m.State))
	}
	return &m, nil
}

type manifestReader struct {
	buf  []byte
	path string
	err  error
}

func (r *manifestReader) fail(detail string) {
	if r.err == nil {
		r.err = &CorruptCheckpointError{Path: r.path, Detail: detail}
	}
}

func (r *manifestReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.fail("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *manifestReader) str() string {
	if r.err != nil {
		return ""
	}
	n, used := binary.Uvarint(r.buf)
	if used <= 0 || n > uint64(len(r.buf)-used) {
		r.fail("truncated string")
		return ""
	}
	s := string(r.buf[used : used+int(n)])
	r.buf = r.buf[used+int(n):]
	return s
}

// writeManifest persists a manifest with crash-safe atomicity: temp
// file in the same directory, contents fsynced, rename over the old
// manifest, directory fsynced. A kill at any instant leaves either the
// previous sealed manifest or the new one — never a torn mix.
func writeManifest(dir string, m *manifest) (int, error) {
	path := filepath.Join(dir, ckptFile)
	enc := m.encode()
	tmp, err := os.CreateTemp(dir, ckptFile+".tmp-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(enc); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return len(enc), syncDir(dir)
}

// loadManifest reads and verifies a session's manifest.
func loadManifest(dir string) (*manifest, error) {
	path := filepath.Join(dir, ckptFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, &CorruptCheckpointError{Path: path, Detail: "missing manifest"}
		}
		return nil, err
	}
	return decodeManifest(path, raw)
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

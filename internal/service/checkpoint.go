package service

import (
	"fmt"
	"os"
	"path/filepath"

	"secpb/internal/engine"
	"secpb/internal/record"
)

// Checkpoint manifest format — a sealed record (internal/record, the
// layer the harness cell cache also uses): magic, a kind+version stamp,
// a fixed payload, and a trailing service-hash seal over everything
// before it, written durably (fsync of file and directory) through a
// temp file and an atomic rename. A manifest is tiny on purpose: the
// durable session state is the append-only segment log, and the
// manifest just seals a *cursor* into it (byte offset, segment count,
// log hash chain, engine state digest). Resume replays the log prefix
// the manifest names and refuses to proceed unless every seal, chain,
// and digest agrees — there is no partial restore.
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
	var p []byte
	p = record.AppendStr(p, m.Spec.Name)
	p = record.AppendStr(p, m.Spec.Scheme)
	p = record.AppendStr(p, m.Spec.Bench)
	for _, v := range []uint64{m.Spec.Seed, uint64(m.Spec.Entries), m.State, m.Segs, m.Ops,
		m.LogBytes, m.Chain, m.Digest, m.ResultDigest} {
		p = record.AppendU64(p, v)
	}
	return record.Seal(ckptMagic, ckptKind, p)
}

// decodeManifest verifies the seal, magic, and kind stamp (record.Open)
// before trusting a single payload byte.
func decodeManifest(path string, raw []byte) (*manifest, error) {
	payload, err := record.Open(ckptMagic, ckptKind, raw)
	if err != nil {
		return nil, &CorruptCheckpointError{Path: path, Detail: err.Error()}
	}
	r := record.NewReader(payload)
	var m manifest
	var entries uint64
	m.Spec.Name = r.Str()
	m.Spec.Scheme = r.Str()
	m.Spec.Bench = r.Str()
	for _, p := range []*uint64{&m.Spec.Seed, &entries, &m.State, &m.Segs, &m.Ops,
		&m.LogBytes, &m.Chain, &m.Digest, &m.ResultDigest} {
		*p = r.U64()
	}
	m.Spec.Entries = int(entries)
	if err := r.Close(); err != nil {
		return nil, &CorruptCheckpointError{Path: path, Detail: err.Error()}
	}
	if m.State != ckptStateActive && m.State != ckptStateFinalized {
		return nil, &CorruptCheckpointError{Path: path, Detail: fmt.Sprintf("unknown session state %d", m.State)}
	}
	return &m, nil
}

// writeManifest persists a manifest durably and atomically: a kill at
// any instant leaves either the previous sealed manifest or the new
// one — never a torn mix.
func writeManifest(dir string, m *manifest) (int, error) {
	enc := m.encode()
	return len(enc), record.WriteFile(filepath.Join(dir, ckptFile), enc, true)
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

// Package record is the host side's one durable-record layer: the
// sealed record format, its bounds-checked reader and the atomic file
// writer that the harness cell cache, the service checkpoint manifest
// and result artifact, and recorded traces all persist through.
//
// A record counts only once it is sealed and persisted whole, the way
// SecPB seals the memory tuple before the point of persistency:
//
//	magic | str(kind) | payload | seal
//
// where str is a uvarint length plus bytes and seal is the service hash
// (Sum) of everything before it, little-endian. Open verifies the seal
// before it trusts a single byte, then the magic, then the kind stamp,
// so a truncated, bit-flipped or foreign-version record is always a
// typed *Error and never a partial read.
package record

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// The service hash: the FNV-1a step (xor the byte, multiply by the
// 64-bit FNV prime) from a fixed non-standard offset, carried as a
// resumable uint64 chain. The offset is 0xcbf29ce4841c3be7, not FNV's
// basis 0xcbf29ce484222325, so digests do not match hash/fnv's New64a;
// the value is kept because checkpoint manifests and state digests
// already sealed with it must keep verifying. hash/fnv could not carry
// the chain anyway: it cannot be re-seeded from a stored state.
const (
	// HashInit is the chain's offset — the hash of no bytes.
	HashInit  uint64 = 14695981039346269159
	hashPrime        = 1099511628211
)

// Hash folds p into a running chain.
func Hash(h uint64, p []byte) uint64 {
	for _, b := range p {
		h ^= uint64(b)
		h *= hashPrime
	}
	return h
}

// Sum is the service hash of p alone.
func Sum(p []byte) uint64 { return Hash(HashInit, p) }

// Error reports a record that failed verification. Its text is the
// bare detail; callers wrap it in their own typed error with the path.
type Error struct{ Detail string }

func (e *Error) Error() string { return e.Detail }

// AppendU64 appends v little-endian.
func AppendU64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }

// AppendStr appends s as a uvarint length followed by its bytes.
func AppendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Seal frames payload as magic | str(kind) | payload | seal.
func Seal(magic, kind string, payload []byte) []byte {
	buf := make([]byte, 0, len(magic)+binary.MaxVarintLen64+len(kind)+len(payload)+8)
	buf = append(buf, magic...)
	buf = AppendStr(buf, kind)
	buf = append(buf, payload...)
	return AppendU64(buf, Sum(buf))
}

// Open verifies a sealed record — seal, then magic, then kind — and
// returns its payload.
func Open(magic, kind string, raw []byte) ([]byte, error) {
	if len(raw) < len(magic)+8 {
		return nil, &Error{fmt.Sprintf("short record: %d bytes", len(raw))}
	}
	body := raw[:len(raw)-8]
	if got, want := binary.LittleEndian.Uint64(raw[len(body):]), Sum(body); got != want {
		return nil, &Error{fmt.Sprintf("seal mismatch: stored %016x computed %016x", got, want)}
	}
	if string(body[:len(magic)]) != magic {
		return nil, &Error{"bad magic"}
	}
	r := Reader{buf: body[len(magic):]}
	if got := r.Str(); r.err != nil || got != kind {
		r.fail(fmt.Sprintf("kind stamp %q, want %q", got, kind))
		return nil, r.err
	}
	return r.buf, nil
}

// Reader consumes a payload field by field. The first over-read sticks:
// later reads return zero values and Close reports it.
type Reader struct {
	buf []byte
	err error
}

// NewReader reads payload.
func NewReader(payload []byte) *Reader { return &Reader{buf: payload} }

func (r *Reader) fail(detail string) {
	if r.err == nil {
		r.err = &Error{detail}
	}
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil || len(r.buf) < 8 {
		r.fail("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// Str reads a uvarint-length string. The bound compares the length
// against the bytes left, so no length can wrap an index.
func (r *Reader) Str() string {
	n, used := binary.Uvarint(r.buf)
	if r.err != nil || used <= 0 || n > uint64(len(r.buf)-used) {
		r.fail("truncated string")
		return ""
	}
	s := string(r.buf[used : used+int(n)])
	r.buf = r.buf[used+int(n):]
	return s
}

// Close reports the first failure, or trailing bytes: a short payload
// that still seals must not silently zero-fill fields, nor a long one
// hide bytes.
func (r *Reader) Close() error {
	if r.err == nil && len(r.buf) != 0 {
		r.fail(fmt.Sprintf("%d trailing bytes after payload", len(r.buf)))
	}
	return r.err
}

// WriteAtomic writes path through a temp file in the same directory
// and a rename, so a kill at any instant leaves the old file or the
// new one, never a torn mix. With durable set, the file is fsynced
// before the rename and the directory after it, so the new contents
// also survive power loss once WriteAtomic returns.
func WriteAtomic(path string, durable bool, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	err = write(tmp)
	if err == nil && durable {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil || !durable {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFile is WriteAtomic for contents already in memory.
func WriteFile(path string, data []byte, durable bool) error {
	return WriteAtomic(path, durable, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

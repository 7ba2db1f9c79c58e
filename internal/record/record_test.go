package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

const (
	testMagic = "TEST"
	testKind  = "test-v1"
)

func testPayload() []byte {
	p := AppendStr(nil, "name")
	p = AppendU64(p, 1<<63|5)
	return AppendStr(p, "")
}

func requireError(t *testing.T, err error, label string) {
	t.Helper()
	var re *Error
	if !errors.As(err, &re) {
		t.Fatalf("%s: want *Error, got %T (%v)", label, err, err)
	}
}

// The service hash keeps its non-standard offset: manifests and state
// digests sealed under it must keep verifying.
func TestHashPinned(t *testing.T) {
	if Sum(nil) != 0xcbf29ce4841c3be7 {
		t.Fatalf("Sum(nil) = %#x", Sum(nil))
	}
	if got, want := Hash(Sum([]byte("ab")), []byte("cd")), Sum([]byte("abcd")); got != want {
		t.Fatalf("chained %#x, one-shot %#x", got, want)
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	raw := Seal(testMagic, testKind, testPayload())
	payload, err := Open(testMagic, testKind, raw)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(payload)
	if s, v, e := r.Str(), r.U64(), r.Str(); s != "name" || v != 1<<63|5 || e != "" {
		t.Fatalf("decoded %q %d %q", s, v, e)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Reading past the end sticks, and so do trailing bytes.
	r = NewReader(payload)
	r.Str()
	if r.Close() == nil {
		t.Fatal("trailing bytes accepted")
	}
	r = NewReader(payload)
	r.Str()
	r.U64()
	r.Str()
	r.U64()
	requireError(t, r.Close(), "over-read")
}

// Open checks the seal first, then the magic, then the kind.
func TestOpenCheckOrder(t *testing.T) {
	raw := Seal(testMagic, testKind, testPayload())
	flipped := append([]byte(nil), raw...)
	flipped[0] ^= 1
	for _, tc := range []struct {
		name, want string
		raw        []byte
	}{
		{"flipped magic, old seal", "seal mismatch", flipped},
		{"other magic, resealed", "bad magic", Seal("XEST", testKind, testPayload())},
		{"other kind, resealed", "kind stamp", Seal(testMagic, "test-v0", testPayload())},
	} {
		_, err := Open(testMagic, testKind, tc.raw)
		requireError(t, err, tc.name)
		if !bytes.HasPrefix([]byte(err.Error()), []byte(tc.want)) {
			t.Errorf("%s: error %q, want %q first", tc.name, err, tc.want)
		}
	}
}

// Every flipped byte and every truncation of a record is a typed error.
func TestOpenRejectsEveryFlipAndTruncation(t *testing.T) {
	raw := Seal(testMagic, testKind, testPayload())
	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0xff
		_, err := Open(testMagic, testKind, mut)
		requireError(t, err, "flip")
	}
	for n := 0; n < len(raw); n++ {
		_, err := Open(testMagic, testKind, raw[:n])
		requireError(t, err, "truncation")
	}
}

func TestWriteAtomic(t *testing.T) {
	for _, durable := range []bool{false, true} {
		dir := t.TempDir()
		path := filepath.Join(dir, "f")
		if err := WriteFile(path, []byte("old"), durable); err != nil {
			t.Fatal(err)
		}
		// A failing writer leaves the old contents and no temp file.
		boom := errors.New("boom")
		err := WriteAtomic(path, durable, func(w io.Writer) error {
			w.Write([]byte("torn"))
			return boom
		})
		if err != boom {
			t.Fatalf("durable=%v: error %v, want the writer's", durable, err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != "old" {
			t.Fatalf("durable=%v: %q, %v after a failed write", durable, got, err)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 1 {
			t.Fatalf("durable=%v: %d directory entries, want 1", durable, len(ents))
		}
		if err := WriteFile(path, []byte("new"), durable); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) != "new" {
			t.Fatalf("durable=%v: %q after rewrite", durable, got)
		}
	}
}

// FuzzRecordOpen: any bytes after the magic, resealed so the seal
// passes, either open and read cleanly or fail with *Error — never a
// panic.
func FuzzRecordOpen(f *testing.F) {
	f.Add(binary.AppendUvarint(nil, 1<<64-8)) // a kind length that wraps pos+n
	f.Add(append(AppendStr(nil, testKind), binary.AppendUvarint(nil, 1<<64-8)...))
	f.Add(append(AppendStr(nil, testKind), testPayload()...))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		raw := append([]byte(testMagic), body...)
		raw = AppendU64(raw, Sum(raw))
		payload, err := Open(testMagic, testKind, raw)
		if err != nil {
			requireError(t, err, "open")
			return
		}
		r := NewReader(payload)
		for r.err == nil && len(r.buf) > 0 {
			r.Str()
			r.U64()
		}
		if err := r.Close(); err != nil {
			requireError(t, err, "read")
		}
	})
}

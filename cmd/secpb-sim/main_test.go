package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"secpb/internal/trace"
	"secpb/internal/workload"
)

// writeTrace records ops to path in one of the two binary encodings.
func writeTrace(t *testing.T, path string, ops []trace.Op, spb2 bool) {
	t.Helper()
	var buf bytes.Buffer
	var w interface {
		Write(trace.Op) error
		Flush() error
	}
	if spb2 {
		w = trace.NewSegWriter(&buf, trace.DefaultSegOps)
	} else {
		w = trace.NewWriter(&buf)
	}
	for _, op := range ops {
		if err := w.Write(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTraceReplaySPB1AndSPB2 replays the same ops recorded as SPB1 and
// as SPB2 (the secpb-trace gen default): both must decode and print
// results identical to the live generator run they were recorded from.
func TestTraceReplaySPB1AndSPB2(t *testing.T) {
	const ops, seed = 3000, "5"
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof, 5, ops)
	if err != nil {
		t.Fatal(err)
	}
	var recorded []trace.Op
	for op, ok := gen.Next(); ok; op, ok = gen.Next() {
		recorded = append(recorded, op)
	}

	dir := t.TempDir()
	spb1 := filepath.Join(dir, "t.spb")
	spb2 := filepath.Join(dir, "t.spb2")
	writeTrace(t, spb1, recorded, false)
	writeTrace(t, spb2, recorded, true)

	sim := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(append([]string{"-bench", "gcc", "-seed", seed}, args...), &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return out.String()
	}
	live := sim("-ops", "3000")
	if !strings.Contains(live, "instructions") {
		t.Fatalf("unexpected output:\n%s", live)
	}
	if got := sim("-trace", spb1); got != live {
		t.Errorf("SPB1 replay differs from the live run:\n%s\nvs\n%s", got, live)
	}
	if got := sim("-trace", spb2); got != live {
		t.Errorf("SPB2 replay differs from the live run:\n%s\nvs\n%s", got, live)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-scheme", "nope"},
		{"-bench", "nope"},
		{"-nosuchflag"},
	} {
		var uerr usageError
		if err := run(args, &bytes.Buffer{}); !errors.As(err, &uerr) {
			t.Errorf("%v: got %v, want a usage error", args, err)
		}
	}
}

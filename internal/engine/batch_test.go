package engine

import (
	"testing"

	"secpb/internal/config"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// TestRunBatchMatchesScalarRun replays the same generated stream
// through Run on a plain Source (the scalar loop) and Run on the
// generator (a BatchSource, dispatched to RunBatch) and requires
// identical results — the batched replay is a pure dispatch
// optimization, invisible to the simulation.
func TestRunBatchMatchesScalarRun(t *testing.T) {
	for _, scheme := range []config.Scheme{config.SchemeBBB, config.SchemeCOBCM, config.SchemeNoGap} {
		cfg := config.Default().WithScheme(scheme)
		prof := mustProfile(t, "povray")

		ops, err := workload.Generate(prof, cfg.Seed, 20000)
		if err != nil {
			t.Fatal(err)
		}
		scalar := runOps(t, cfg, prof, ops)

		gen, err := workload.NewGenerator(prof, cfg.Seed, 20000)
		if err != nil {
			t.Fatal(err)
		}
		batched, err := New(cfg, prof, []byte("k"))
		if err != nil {
			t.Fatal(err)
		}
		if err := batched.Run(gen); err != nil {
			t.Fatal(err)
		}

		if a, b := scalar.Collect(), batched.Collect(); a != b {
			t.Errorf("%v: scalar result %+v != batched %+v", scheme, a, b)
		}
	}
}

// TestRunBatchValidates ensures batched replay still rejects invalid
// ops (validation is per batch, not skipped).
func TestRunBatchValidates(t *testing.T) {
	cfg := config.Default()
	prof := mustProfile(t, "povray")
	e, err := New(cfg, prof, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	b := trace.NewBatch(4)
	b.Append(trace.Op{Kind: trace.Store, Addr: 0x1000, Size: 0}) // invalid
	if err := e.RunBatch(oneBatchSource{b}); err == nil {
		t.Fatal("RunBatch accepted an invalid op")
	}
}

// oneBatchSource yields a single prefilled batch.
type oneBatchSource struct{ b *trace.Batch }

func (s oneBatchSource) NextBatch(b *trace.Batch) bool {
	if s.b == nil || s.b.Len() == 0 {
		return false
	}
	b.Reset()
	for i := 0; i < s.b.Len(); i++ {
		b.Append(s.b.Op(i))
	}
	s.b.Reset()
	return b.Len() > 0
}

// The recovery matrix: every SecPB scheme, under both strict and
// relaxed persist ordering, crash-injected specifically at drain-epoch
// points (WPQ flush, counter persist, BMT sweep boundary) — the moments
// when the memory tuple is partially written and recovery is hardest.
// This file is an external test package because it drives the crashsim
// injector, which itself builds on the recovery package's late work.
package recovery_test

import (
	"fmt"
	"testing"

	"secpb/internal/config"
	"secpb/internal/crashpoint"
	"secpb/internal/crashsim"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

func TestRecoveryMatrixDrainEpoch(t *testing.T) {
	drainKinds := []crashpoint.Kind{
		crashpoint.WPQFlush,
		crashpoint.CounterPersist,
		crashpoint.SweepBoundary,
	}
	persistency := []struct {
		name   string
		window int // reorder window; <=1 keeps strict program order
	}{
		{"strict", 1},
		{"relaxed", 16},
	}
	schemes := config.SecPBSchemes()
	nops, points := 3000, 40
	if testing.Short() {
		// Smoke subset: the most eager and the laziest scheme bracket
		// the design space; the full grid runs in regular mode.
		schemes = []config.Scheme{config.SchemeNoGap, config.SchemeCOBCM}
		nops, points = 1500, 10
	}

	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	base, err := workload.Generate(prof, 77, nops)
	if err != nil {
		t.Fatal(err)
	}

	for _, scheme := range schemes {
		for _, p := range persistency {
			t.Run(fmt.Sprintf("%s/%s", scheme, p.name), func(t *testing.T) {
				ops := base
				if p.window > 1 {
					ops = trace.Reorder(base, p.window, 123)
				}
				cfg := config.Default().WithScheme(scheme)
				cfg.Seed = 77
				cell, err := crashsim.InjectTrace(cfg, prof, []byte("recovery-matrix"), ops, crashsim.TraceOptions{
					Points: points,
					Seed:   99,
					Kinds:  drainKinds,
				}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if cell.Injected == 0 {
					t.Fatal("no drain-epoch crash points injected; matrix cell vacuous")
				}
				if cell.Failures > 0 {
					t.Errorf("%d of %d drain-epoch crashes failed recovery, first: %s",
						cell.Failures, cell.Injected, cell.FirstBad)
				}
			})
		}
	}
}

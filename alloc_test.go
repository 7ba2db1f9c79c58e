// Race-detector instrumentation itself allocates, so these exact-zero
// pins only hold on uninstrumented builds; ci.sh runs them in a
// dedicated non-race pass.
//go:build !race

package secpb

// Allocation pins for the per-op hot paths: the engine's step path
// promises a zero-allocation steady state, and these tests fail on the
// first regression instead of leaving it to drift in benchmark noise
// (B/op rounding hides sub-1 averages).

import (
	"testing"

	"secpb/internal/config"
	"secpb/internal/engine"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// TestEngineStoreHotPathZeroAlloc drives the BenchmarkEngineStore
// workload — sequential persist stores through the full COBCM pipeline,
// including watermark drains and coalesced BMT sweeps — to steady state
// and then requires exactly zero heap allocations per store.
func TestEngineStoreHotPathZeroAlloc(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(config.Default().WithScheme(config.SchemeCOBCM), prof, []byte("alloc-key"))
	if err != nil {
		t.Fatal(err)
	}
	const ws = 1 << 16
	i := uint64(0)
	step := func() {
		op := trace.Op{Kind: trace.Store, Addr: (i * 8) % ws, Size: 8, Data: i, Gap: 3}
		if err := eng.Step(op); err != nil {
			t.Fatal(err)
		}
		i++
	}
	// Warm to steady state: every ring, freelist, page and staging
	// buffer reaches its high-water capacity, after which stores only
	// recycle.
	for n := 0; n < 300_000; n++ {
		step()
	}
	if avg := testing.AllocsPerRun(50_000, step); avg != 0 {
		t.Fatalf("engine store hot path allocates: %g allocs/op at steady state", avg)
	}
}

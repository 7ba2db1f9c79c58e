package crashsim

import (
	"context"
	"testing"
)

// BenchmarkCrashMatrix explores the repository benchmark's crash shape —
// the six SecPB schemes × {gcc, kvheavy} at 4000 ops per cell — with 50
// crash points per cell instead of 300, so one iteration stays short. It
// diagnoses the cost of a crash point (snapshot, late-work drain, audit,
// four-way verification); it is not a target in itself.
func BenchmarkCrashMatrix(b *testing.B) {
	opts := Options{Workloads: []string{"gcc", "kvheavy"}, Ops: 4000, Seed: 0x5ec9b, Points: 50}
	for i := 0; i < b.N; i++ {
		m, err := Explore(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if !m.Clean() {
			b.Fatal("crash matrix did not recover clean")
		}
	}
}

package engine

import (
	"reflect"
	"testing"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/crashpoint"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// countSink is a crash sink that only counts the points it sees. The
// engine takes one step path whether a sink is installed or not, so
// attaching it must leave every result unchanged.
type countSink struct{ points uint64 }

func (s *countSink) CrashPoint(crashpoint.Kind, addr.Block) { s.points++ }

// runCell replays the workload stream of one experiment cell, with or
// without a counting sink, and returns the result, the functional
// state, and the number of crash points the sink saw.
func runCell(t *testing.T, cfg config.Config, prof workload.Profile, ops uint64, withSink bool) (Result, map[string]any, uint64) {
	t.Helper()
	eng, err := New(cfg, prof, ExperimentKey)
	if err != nil {
		t.Fatalf("New(%v): %v", cfg.Scheme, err)
	}
	sink := &countSink{}
	if withSink {
		eng.SetCrashSink(sink)
	}
	gen, err := workload.NewGenerator(prof, cfg.Seed, ops)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(gen); err != nil {
		t.Fatalf("Run(%v/%s, sink=%v): %v", cfg.Scheme, prof.Name, withSink, err)
	}
	state := map[string]any{
		"memory":    eng.Memory(),
		"occupancy": eng.Occupancy(),
		"peak":      eng.PeakOccupancy(),
	}
	return eng.Collect(), state, sink.points
}

// TestSinkTransparency holds every Table IV cell — each profile under
// the BBB baseline and every SecPB scheme, plus the knob variants that
// change the store path's shape — to a Result and functional state
// that are identical with and without a crash sink installed. The
// crash, fault and service matrices run with a sink; the published
// numbers run without one; this test is what makes them the same code.
func TestSinkTransparency(t *testing.T) {
	cells := func(cfg config.Config) []config.Config {
		out := []config.Config{cfg.WithScheme(config.SchemeBBB)}
		for _, s := range config.SecPBSchemes() {
			out = append(out, cfg.WithScheme(s))
		}
		return out
	}
	check := func(t *testing.T, name string, cfg config.Config, prof workload.Profile, ops uint64) {
		plain, pstate, _ := runCell(t, cfg, prof, ops, false)
		sunk, sstate, points := runCell(t, cfg, prof, ops, true)
		if !reflect.DeepEqual(plain, sunk) {
			t.Errorf("%s/%v/%s: result differs under a sink\nplain: %+v\nsink:  %+v",
				name, cfg.Scheme, prof.Name, plain, sunk)
		}
		if !reflect.DeepEqual(pstate, sstate) {
			t.Errorf("%s/%v/%s: functional state differs under a sink", name, cfg.Scheme, prof.Name)
		}
		if points == 0 && plain.Stores > 0 {
			t.Errorf("%s/%v/%s: sink saw no crash points", name, cfg.Scheme, prof.Name)
		}
	}

	t.Run("table4", func(t *testing.T) {
		for _, prof := range workload.Profiles() {
			for _, cfg := range cells(config.Default()) {
				check(t, "table4", cfg, prof, 3000)
			}
		}
	})

	variants := map[string]func(config.Config) config.Config{
		"blocking-verify": func(c config.Config) config.Config {
			c.Speculative = false
			return c
		},
		"tiny-secpb": func(c config.Config) config.Config {
			return c.WithSecPBEntries(4) // forces the backflow path
		},
		"no-dvi": func(c config.Config) config.Config {
			c.DisableDVICoalescing = true
			return c
		},
	}
	t.Run("variants", func(t *testing.T) {
		for _, name := range []string{"blocking-verify", "tiny-secpb", "no-dvi"} {
			base := variants[name](config.Default())
			for _, bench := range []string{"mcf", "gamess"} {
				prof := mustProfile(t, bench)
				for _, cfg := range append(cells(base), base.WithScheme(config.SchemeSP)) {
					if err := cfg.Validate(); err != nil {
						t.Fatalf("%s/%v: %v", name, cfg.Scheme, err)
					}
					check(t, name, cfg, prof, 4000)
				}
			}
		}
	})
}

// TestSystemSinkTransparency is TestSinkTransparency for a 2-core
// System: a sink also makes the cores step serially, and the result
// must not move.
func TestSystemSinkTransparency(t *testing.T) {
	prof := mustProfile(t, "gromacs")
	for _, scheme := range config.SecPBSchemes() {
		cfg := config.Default().WithScheme(scheme).WithCores(2)
		run := func(withSink bool) MCResult {
			sys, err := NewSystem(cfg, prof, ExperimentKey, 3000)
			if err != nil {
				t.Fatal(err)
			}
			if withSink {
				sys.SetCrashSink(&countSink{})
			}
			if err := sys.Run(); err != nil {
				t.Fatalf("%v (sink=%v): %v", scheme, withSink, err)
			}
			return sys.Collect()
		}
		if plain, sunk := run(false), run(true); !reflect.DeepEqual(plain, sunk) {
			t.Errorf("%v: 2-core result differs under a sink\nplain: %+v\nsink:  %+v", scheme, plain, sunk)
		}
	}
}

// TestBatchMatchesScalarStep replays the same op stream through the
// columnar batch loop and the per-op Step path and requires identical
// results and memory images — the batch loop's block column is a
// wall-clock strategy, never result bits.
func TestBatchMatchesScalarStep(t *testing.T) {
	prof := mustProfile(t, "povray")
	for _, scheme := range config.AllSchemes() {
		cfg := config.Default().WithScheme(scheme)
		ops, err := workload.Generate(prof, cfg.Seed, 6000)
		if err != nil {
			t.Fatal(err)
		}

		scalar, err := New(cfg, prof, []byte("k"))
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if err := scalar.Step(op); err != nil {
				t.Fatal(err)
			}
		}
		if err := scalar.Finish(); err != nil {
			t.Fatal(err)
		}

		batched, err := New(cfg, prof, []byte("k"))
		if err != nil {
			t.Fatal(err)
		}
		if err := batched.RunBatch(trace.NewSliceBatchSource(ops)); err != nil {
			t.Fatal(err)
		}

		sres, bres := scalar.Collect(), batched.Collect()
		if !reflect.DeepEqual(sres, bres) {
			t.Errorf("%v: batch replay differs from scalar Step\nscalar: %+v\nbatch:  %+v", scheme, sres, bres)
		}
		if !reflect.DeepEqual(scalar.Memory(), batched.Memory()) {
			t.Errorf("%v: batch replay memory image differs", scheme)
		}
	}
}

// FuzzSinkTransparency decodes an arbitrary byte string into an op
// stream and replays it per op without a sink and as one batch with a
// sink, requiring identical results, functional memory, and error
// outcomes.
func FuzzSinkTransparency(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}, uint8(7))
	f.Add([]byte("secpb-sink-transparency-seed-corpus"), uint8(5))
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xaa, 0x55, 0xaa, 0x55, 0x10, 0x42}, uint8(2))
	prof, err := workload.ByName("mcf")
	if err != nil {
		f.Fatal(err)
	}
	schemes := config.AllSchemes()
	f.Fuzz(func(t *testing.T, raw []byte, sel uint8) {
		scheme := schemes[int(sel)%len(schemes)]
		// Tiny buffer + blocking verification: exercises backflow,
		// forced drains and the load integrity-check latency.
		cfg := config.Default().WithScheme(scheme).WithSecPBEntries(8)
		cfg.Speculative = sel%2 == 0
		ops := decodeFuzzOps(raw)
		if len(ops) == 0 {
			return
		}
		run := func(withSink bool) (Result, map[addr.Block][addr.BlockBytes]byte, error) {
			eng, err := New(cfg, prof, []byte("k"))
			if err != nil {
				t.Fatal(err)
			}
			if withSink {
				eng.SetCrashSink(&countSink{})
				b := trace.NewBatch(len(ops))
				for _, op := range ops {
					b.Append(op)
				}
				if err := eng.StepBatch(b); err != nil {
					return eng.Collect(), nil, err
				}
			} else {
				for _, op := range ops {
					if err := eng.Step(op); err != nil {
						return eng.Collect(), nil, err
					}
				}
			}
			if err := eng.Finish(); err != nil {
				return eng.Collect(), nil, err
			}
			return eng.Collect(), eng.Memory(), nil
		}
		pres, pmem, perr := run(false)
		sres, smem, serr := run(true)
		if (perr == nil) != (serr == nil) {
			t.Fatalf("error divergence: plain=%v sink=%v", perr, serr)
		}
		if perr != nil {
			if perr.Error() != serr.Error() {
				t.Fatalf("error text divergence: plain=%q sink=%q", perr, serr)
			}
			return
		}
		if !reflect.DeepEqual(pres, sres) {
			t.Fatalf("result divergence\nplain: %+v\nsink:  %+v", pres, sres)
		}
		if !reflect.DeepEqual(pmem, smem) {
			t.Fatalf("memory image divergence")
		}
	})
}

// decodeFuzzOps turns a fuzz input into a bounded well-formed op
// stream: loads, stores of every size, and fences over a small working
// set (to make coalescing, eviction and backflow all reachable).
func decodeFuzzOps(raw []byte) []trace.Op {
	var ops []trace.Op
	for i := 0; i+2 < len(raw) && len(ops) < 512; i += 3 {
		b0, b1, b2 := raw[i], raw[i+1], raw[i+2]
		gap := uint32(b2 >> 5)
		switch b0 % 8 {
		case 0, 1, 2: // load
			ops = append(ops, trace.Op{
				Kind: trace.Load,
				Addr: uint64(b1) << 3,
				Size: 8,
				Gap:  gap,
			})
		case 3: // fence
			ops = append(ops, trace.Op{Kind: trace.Fence, Gap: gap})
		default: // store, size 1/2/4/8, aligned to size
			size := uint8(1) << (b2 & 3)
			a := (uint64(b1) << 3) &^ (uint64(size) - 1)
			ops = append(ops, trace.Op{
				Kind: trace.Store,
				Addr: a,
				Size: size,
				Data: uint64(b0)<<32 | uint64(b1)<<8 | uint64(b2),
				Gap:  gap,
			})
		}
	}
	return ops
}

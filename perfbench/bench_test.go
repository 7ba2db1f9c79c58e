package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"secpb/internal/config"
	"secpb/internal/crashsim"
	"secpb/internal/engine"
	"secpb/internal/harness"
	"secpb/internal/service"
	"secpb/internal/workload"
)

func TestFoldAttributesSamplesToLayers(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"secpb/internal/mem.(*Cache).Fill", "secpb/internal/engine.(*Engine).loadMissSlow"}, "mem"},
		// asyncPreempt goes to the first non-runtime caller.
		{[]string{asyncPreempt, "secpb/internal/mem.(*Cache).AccessRead", "secpb/internal/engine.(*Engine).loadFast"}, "mem"},
		{[]string{asyncPreempt, "runtime.preemptPark", "secpb/internal/workload.(*Generator).next"}, "workload"},
		// ... even when that caller is a standard-library helper.
		{[]string{asyncPreempt, "sort.insertionSort", "secpb/internal/crashsim.chooseTriggers"}, "crashsim"},
		// A preempted runtime goroutine stays in the runtime.
		{[]string{asyncPreempt, "runtime.gcDrain", "runtime.gcBgMarkWorker"}, runtimeLayer},
		// Runtime work that is not preemption stays in the runtime.
		{[]string{"runtime.mallocgc", "secpb/internal/engine.New"}, runtimeLayer},
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "secpb/internal/crashsim.(*shadow).advanceTo"}, runtimeLayer},
		{[]string{"crypto/sha512.blockAVX2", "crypto/sha512.(*Digest).Write", "secpb/internal/bmt.(*Tree).hashChildren"}, "crypto"},
		{[]string{"secpb/internal/crypto.(*Engine).MAC", "secpb/internal/nvm.(*Controller).flushStaged"}, "crypto"},
		// Other standard-library leaves go to the caller's layer.
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Fsync", "os.(*File).Sync", "secpb/internal/service.(*Session).checkpoint"}, "service"},
		{[]string{"secpb/internal/runner.Map[go.shape.struct { secpb/internal/config.Scheme }].func1", "runtime.goexit"}, "runner"},
		{[]string{"secpb/internal/ptable.(*Table[go.shape.uint8]).Get"}, "nvm"},
		{[]string{"main.run", "main.main"}, benchLayer},
		{[]string{"runtime/pprof.(*profileBuilder).addCPUData"}, benchLayer},
		{[]string{"net/http.(*conn).serve", "runtime.goexit"}, otherLayer},
		{[]string{"net/http.(*conn).serve"}, otherLayer},
		{[]string{"secpb/internal/addr.Block.Page"}, otherLayer},
		{nil, otherLayer},
	}
	var samples []sample
	var want int64
	for i, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%q) = %s, want %s", c.stack, got, c.want)
		}
		samples = append(samples, sample{Stack: c.stack, Value: int64(i + 1)})
		want += int64(i + 1)
	}
	f := fold(samples)
	var sum int64
	for _, v := range f.Self {
		sum += v
	}
	if sum != f.Total || f.Total != want {
		t.Errorf("self times sum to %d, total %d, want both %d", sum, f.Total, want)
	}
	if f.AsyncPreempt != 2+3+4+5 {
		t.Errorf("asyncPreempt weight %d, want %d", f.AsyncPreempt, 2+3+4+5)
	}
	for l := range f.Self {
		if !contains(layerNames(), l) {
			t.Errorf("fold produced undeclared layer %q", l)
		}
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

//go:noinline
func spin(d time.Duration) uint64 {
	var x uint64 = 1
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var sink uint64

func TestParseCPUProfileFromRuntime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	sink = spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	samples, err := parseCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for _, s := range samples {
		total += s.Value
		for _, fn := range s.Stack {
			found = found || strings.HasSuffix(fn, ".spin")
		}
	}
	if total <= 0 || !found {
		t.Fatalf("profile of %d samples, total %d ns, spin seen %v", len(samples), total, found)
	}
	if f := fold(samples); f.Total != total {
		t.Errorf("fold total %d, sample total %d", f.Total, total)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseCPUProfile(path); err == nil {
		t.Error("a truncated profile parsed without error")
	}
}

// TestParseRawProfile reads inlined frames and generic names that hold
// spaces, and takes the value from the cpu column.
func TestParseRawProfile(t *testing.T) {
	text := `PeriodType: cpu nanoseconds
Period: 10000000
Samples:
samples/count cpu/nanoseconds
          2   20000000: 1 2 
          1   10000000: 3 2 
Locations
     1: 0x51f7af M=1 secpb/internal/mem.(*Cache).Fill /src/mem/cache.go:13:0 s=10
             secpb/internal/engine.(*Engine).loadMissSlow /src/engine/engine.go:40:0 s=30
     2: 0x51f827 M=1 secpb/internal/runner.Map[go.shape.struct { secpb/internal/config.Scheme }].func1 /src/runner/runner.go:25:0 s=22
     3: 0x474c6b M=1 runtime.asyncPreempt /go/src/runtime/preempt_amd64.s:7:0 s=5
Mappings
1: 0x400000/0x536000/0x0 /tmp/perfbench [FN]
`
	got, err := parseRawProfile(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []sample{
		{[]string{"secpb/internal/mem.(*Cache).Fill", "secpb/internal/engine.(*Engine).loadMissSlow",
			"secpb/internal/runner.Map[go.shape.struct { secpb/internal/config.Scheme }].func1"}, 20000000},
		{[]string{asyncPreempt, "secpb/internal/runner.Map[go.shape.struct { secpb/internal/config.Scheme }].func1"}, 10000000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %q, want %q", got, want)
	}
	if _, err := parseRawProfile("Samples:\nsamples/count\n"); err == nil {
		t.Error("a profile without a cpu column parsed")
	}
}

func TestPackageOf(t *testing.T) {
	for in, want := range map[string]string{
		"secpb/internal/mem.(*Cache).Fill":                           "secpb/internal/mem",
		"secpb/internal/runner.Map[go.shape.struct { a/b.C }].func1": "secpb/internal/runner",
		"runtime.mallocgc":        "runtime",
		"crypto/sha512.blockAVX2": "crypto/sha512",
		"main.run.func1":          "main",
	} {
		if got := packageOf(in); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTailReportsHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	cases := []struct {
		n      int
		p, v   float64
		wantOK bool
	}{
		{20000, 99.9, 19980, true},
		{1500, 99, 1485, true},
		{1000, 99, 990, true},
		{999, 95, 950, true},
		{200, 95, 190, true},
		{100, 90, 90, true},
		{20, 50, 10, true},
		{19, 50, 10, false},
	}
	for _, c := range cases {
		p, v, n, ok := tail(seq(c.n))
		if p != c.p || v != c.v || n != c.n || ok != c.wantOK {
			t.Errorf("tail(1..%d) = p%v %v n=%d ok=%v, want p%v %v ok=%v", c.n, p, v, n, ok, c.p, c.v, c.wantOK)
		}
	}
	if _, _, n, ok := tail(nil); n != 0 || ok {
		t.Error("tail of no samples must report none")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "cell", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "step", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "step", Start: 20 * ms, End: 50 * ms},  // overlaps 2
		{ID: 4, Parent: 1, Name: "step", Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{ID: 5, Parent: 2, Name: "inner", Start: 12 * ms, End: 14 * ms},
		{ID: 6, Name: "cell", Start: 200 * ms, End: 210 * ms},
	}
	st := selfTimes(spans)
	if got := st["cell"]; got.Total != 110*ms || got.Self != 60*ms || got.Count != 2 {
		t.Errorf("cell: %+v, want total 110ms self 60ms count 2", got)
	}
	if got := st["step"]; got.Total != 80*ms || got.Self != 78*ms {
		t.Errorf("step: %+v, want total 80ms self 78ms", got)
	}
}

func TestRecorderNilIsFree(t *testing.T) {
	var r *Recorder
	if d := r.End(r.Begin("x", 0, 0)); d != 0 || r.Spans() != nil {
		t.Error("a nil recorder recorded something")
	}
	r = newRecorder()
	root := r.Begin("cell", 0, 7)
	r.End(r.Begin("engine.New", root.ID(), 7))
	r.End(root)
	sp := r.Spans()
	if len(sp) != 2 || sp[0].Parent != root.ID() || sp[0].Group != 7 || sp[1].Parent != 0 {
		t.Errorf("spans %+v", sp)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, want)
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, code %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, perLayerMetrics)
	for _, m := range append(append([]metricSpec(nil), endToEndMetrics...), perLayerMetrics...) {
		if m.Better != lo && m.Better != hi {
			t.Errorf("metric %s: better is %q, want %q or %q", m.Name, m.Better, lo, hi)
		}
		// A rate is a throughput: more per second is better.
		if strings.HasSuffix(m.Unit, "/s") && m.Better != hi {
			t.Errorf("metric %s in %s: a throughput must be better %s", m.Name, m.Unit, hi)
		}
	}
	for _, l := range layerNames() {
		if !containsMetric(perLayerMetrics, l+".self_s") {
			t.Errorf("layer %s has no %s.self_s metric", l, l)
		}
	}
	for _, l := range layers {
		for _, m := range l.Moves {
			if !containsMetric(endToEndMetrics, m) {
				t.Errorf("layer %s predicts a move in %q, not an end-to-end metric", l.Name, m)
			}
		}
		for _, w := range []string{l.Main, l.Bypass} {
			if _, ok := workloads[w]; w != "" && !ok {
				t.Errorf("layer %s names unknown workload %q", l.Name, w)
			}
		}
	}
}

func containsMetric(ms []metricSpec, name string) bool {
	for _, m := range ms {
		if m.Name == name {
			return true
		}
	}
	return false
}

// TestTable4OutputCheck is the negative control for table4: the real
// grid at seed 0 matches its golden digest and the paper's bands, and a
// grid with one geomean perturbed fails both checks.
func TestTable4OutputCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the full Table IV grid")
	}
	e := &env{cfgSeed: baseSeed, workers: 2}
	b := &table4Bench{}
	if err := b.prepare(e); err != nil {
		t.Fatal(err)
	}
	grid, _, err := harness.Table4(b.options(e, nil))
	if err != nil {
		t.Fatal(err)
	}
	digest := func() string {
		js, err := json.Marshal(grid)
		if err != nil {
			t.Fatal(err)
		}
		return sha256Hex(js)
	}
	if _, err := checkTable4(grid); err != nil {
		t.Fatal(err)
	}
	s := &runStats{passes: []passResult{{Digest: digest()}}}
	rep := report{Seed: 0}
	rep.fill(s, "table4")
	if s.failed != 0 || rep.Golden != "match" {
		t.Fatalf("seed-0 grid: golden %q, %d failed", rep.Golden, s.failed)
	}

	grid.Mean[config.SchemeCOBCM] *= 1.2
	s = &runStats{passes: []passResult{{Digest: digest()}}}
	rep.fill(s, "table4")
	if s.failed != 1 || !strings.HasPrefix(rep.Golden, "MISMATCH") {
		t.Errorf("perturbed grid passed the golden check: %q, %d failed", rep.Golden, s.failed)
	}
	if _, err := checkTable4(grid); err == nil {
		t.Error("a COBCM geomean 20% high passed the paper bands")
	}
}

func TestCrashOutputCheck(t *testing.T) {
	m, err := crashsim.Explore(context.Background(), crashsim.Options{
		Schemes: []config.Scheme{config.SchemeCOBCM}, Ops: 300, Points: 5, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMatrix(m, 5); err != nil {
		t.Fatal(err)
	}
	if err := checkMatrix(m, 6); err == nil {
		t.Error("a matrix short of its points passed")
	}
	m.Cells[0].Failures = 1
	if err := checkMatrix(m, 5); err == nil {
		t.Error("a matrix with a failed point passed")
	}
}

// TestCrashReplayMatchesCell checks that the crash replay's cell seed
// is crashsim's: the replayed trace passes exactly the crash points
// crashsim.RunCell counted for the cell.
func TestCrashReplayMatchesCell(t *testing.T) {
	opts := crashsim.Options{Ops: 300, Points: 5, Seed: baseSeed}
	for _, wl := range crashWorkloads {
		cell, err := crashsim.RunCell(config.SchemeCOBCM, wl, opts)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := workload.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		seed := crashCellSeed(opts.Seed, config.SchemeCOBCM, wl)
		cfg := config.Default().WithScheme(config.SchemeCOBCM)
		cfg.Seed = seed
		gen, err := workload.NewGenerator(prof, seed, uint64(opts.Ops))
		if err != nil {
			t.Fatal(err)
		}
		var pc pointCounter
		if _, _, _, err := stepEngine(nil, 0, 0, cfg, prof, gen, "workload.NextBatch",
			func(eng *engine.Engine) { eng.SetCrashSink(&pc) }); err != nil {
			t.Fatal(err)
		}
		if pc.n == 0 || pc.n != cell.TotalPoints {
			t.Errorf("%s: replay passed %d crash points, crashsim counted %d", wl, pc.n, cell.TotalPoints)
		}
	}
}

func TestServeOutputCheck(t *testing.T) {
	spec := service.Spec{Name: "s", Scheme: "cobcm", Bench: "gcc", Seed: baseSeed}
	cfg, prof, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunBenchmark(cfg, prof, 5000)
	if err != nil {
		t.Fatal(err)
	}
	s := &serveSession{spec: spec, expect: service.EncodeResult(res)}
	got := service.EncodeResult(res)
	if err := checkSession(s, got); err != nil {
		t.Fatal(err)
	}
	res.Cycles++
	if err := checkSession(s, service.EncodeResult(res)); err == nil {
		t.Error("a result one cycle off passed")
	}
	got[len(got)/2] ^= 1
	if err := checkSession(s, got); err == nil {
		t.Error("a result with a flipped byte passed")
	}
}

// TestRunPhaseCountsDivergentPasses checks that a pass whose digest
// differs from the first counts as a failure, and that a clean phase
// tops its set-up samples up to minSetups.
func TestRunPhaseCountsDivergentPasses(t *testing.T) {
	s := runPhase(&fakeBench{digests: []string{"a", "a", "b"}}, &env{}, 0, 0, 3)
	if len(s.passes) != 3 || s.failed != 1 || s.attempted != 4 {
		t.Errorf("passes %d failed %d attempted %d, want 3, 1, 4", len(s.passes), s.failed, s.attempted)
	}
	s = runPhase(&fakeBench{digests: []string{"a"}}, &env{}, 0, 0, 2)
	if s.failed != 0 || len(s.setups) != minSetups {
		t.Errorf("%d failed, %d set-up samples, want 0 and %d", s.failed, len(s.setups), minSetups)
	}
}

// TestRunPhaseWarmUp checks that warm-up passes are checked against
// the later passes' digest but kept in no figure.
func TestRunPhaseWarmUp(t *testing.T) {
	s := runPhase(&fakeBench{digests: []string{"a", "a", "a"}}, &env{}, 0, 1, 2)
	if len(s.warm) != 1 || len(s.passes) != 2 || s.failed != 0 || s.attempted != 3 {
		t.Errorf("warm %d passes %d failed %d attempted %d, want 1, 2, 0, 3", len(s.warm), len(s.passes), s.failed, s.attempted)
	}
	s = runPhase(&fakeBench{digests: []string{"b", "a", "a"}}, &env{}, 0, 1, 2)
	if len(s.passes) != 2 || s.failed != 2 {
		t.Errorf("a warm-up digest unlike the rest: passes %d failed %d, want 2 and 2", len(s.passes), s.failed)
	}
}

// TestRunPhaseCountsAFailedCheckOnce checks that a pass returning the
// error of a check it already counted is not counted again, and that
// an error no check counted is counted once.
func TestRunPhaseCountsAFailedCheckOnce(t *testing.T) {
	s := runPhase(&fakeBench{digests: []string{"a"}, err: errors.New("check failed"), counted: true}, &env{}, 0, 0, 2)
	if s.failed != 1 || s.attempted != 1 || len(s.errs) != 1 {
		t.Errorf("counted check: failed %d attempted %d errors %d, want 1, 1, 1", s.failed, s.attempted, len(s.errs))
	}
	s = runPhase(&fakeBench{digests: []string{"a"}, err: errors.New("setup failed")}, &env{}, 0, 0, 2)
	if s.failed != 1 || s.attempted != 2 || len(s.errs) != 1 {
		t.Errorf("uncounted error: failed %d attempted %d errors %d, want 1, 2, 1", s.failed, s.attempted, len(s.errs))
	}
}

// fakeBench passes once per digest in turn. With err set, every pass
// fails with it, counting it as its own failed check when counted.
type fakeBench struct {
	digests []string
	n       int
	err     error
	counted bool
}

func (f *fakeBench) prepare(*env) error                    { return nil }
func (f *fakeBench) setupOnly(*env) (time.Duration, error) { return time.Millisecond, nil }
func (f *fakeBench) pass(e *env) (passResult, error) {
	p := passResult{Attempted: 1, Digest: f.digests[f.n%len(f.digests)], Setup: time.Millisecond}
	f.n++
	if f.err != nil {
		if f.counted {
			p.Failed = 1
		}
		return p, f.err
	}
	return p, e.measured(&p, func() error { return nil })
}

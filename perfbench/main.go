// Command perfbench is the repository's benchmark: it runs one of four
// workloads through the public entry points of harness, crashsim,
// service and engine, checks the workload's output, and prints its
// end-to-end metrics, or, with --trace 1, its per-layer metrics.
//
// Usage (from the repository root, through the launcher that builds
// it):
//
//	bash perfbench/run.sh --workload table4 --seed 0 --seconds 10 --trace 0
//
// The last line of standard output is the result object; the line
// before it carries the host fingerprint, the artifact digest and the
// workload-specific figures.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// bench is one workload of the benchmark.
type bench interface {
	// prepare builds the workload's inputs from the seed. It is not
	// timed: the program receives only its results.
	prepare(e *env) error
	// setupOnly performs and tears down the program's set-up once,
	// returning how long the set-up took.
	setupOnly(e *env) (time.Duration, error)
	// pass sets the program up, runs one measured pass through
	// e.measured, and checks its output. With tracing on it also runs
	// the workload's traced-only phases and fills Layer.
	pass(e *env) (passResult, error)
}

// workloads are the benchmark's workloads by name.
var workloads = map[string]bench{
	"table4":    &table4Bench{},
	"multicore": &multicoreBench{},
	"crash":     &crashBench{},
	"serve":     &serveBench{},
}

// passResult is one measured pass.
type passResult struct {
	Setup time.Duration // program set-up before its first op
	Wall  time.Duration // the measured phase
	CPU   time.Duration // process CPU time during the measured phase
	// RSS holds the resident set in bytes, sampled every rssEvery
	// through the measured phase.
	RSS []float64
	// Excluded is the part of Wall left out of throughput (the serve
	// workload's restart, which replays already-simulated work).
	Excluded  time.Duration
	SimOps    uint64 // simulated memory ops in the measured phase
	Attempted int
	Failed    int
	// Digest is the sha256 of the pass's output artifact.
	Digest string
	// Detail holds the workload's own figures, such as resume_s.
	Detail map[string]float64
	// Latencies are per-request latencies in milliseconds.
	Latencies []float64
	// Layer holds per-layer figures from spans and counters (traced
	// passes only).
	Layer map[string]float64
}

// env is what a pass needs from the run.
type env struct {
	ctx     context.Context
	cfgSeed uint64 // the simulator seed, derived from --seed
	workers int
	dir     string    // scratch directory inside the checkout
	rec     *Recorder // nil when untraced
	prof    profiler  // CPU profile and runtime metrics (traced only)
	nDirs   int
}

// freshDir returns a new empty directory under the run's scratch
// directory.
func (e *env) freshDir(tag string) (string, error) {
	e.nDirs++
	d := filepath.Join(e.dir, fmt.Sprintf("%s-%d", tag, e.nDirs))
	return d, os.MkdirAll(d, 0o755)
}

// measured runs fn as the measured phase of p, recording its wall
// time, process CPU time and resident set. With tracing on, the CPU
// profile and runtime metrics cover exactly this phase.
func (e *env) measured(p *passResult, fn func() error) error {
	if e.rec != nil {
		if err := e.prof.start(filepath.Join(e.dir, "cpu.pprof")); err != nil {
			return err
		}
	}
	stop := make(chan struct{})
	rss := sampleRSS(stop)
	c0, t0 := processCPU(), time.Now()
	err := fn()
	p.Wall, p.CPU = time.Since(t0), processCPU()-c0
	close(stop)
	p.RSS = <-rss
	if e.rec != nil {
		if perr := e.prof.stop(); perr != nil && err == nil {
			err = perr
		}
	}
	return err
}

// baseSeed is the simulator's default workload seed; --seed 0 runs
// exactly the inputs behind the repository's published artifacts.
const baseSeed = 0x5ec9b

// warmPasses, minPasses and minSetups bound how few samples a run
// may take. The first pass of a process pays for page faults, heap
// growth and cold host caches (serve's first pass ran 20-30% slower
// than the rest), so an untraced phase starts with warmPasses passes
// that are checked but not kept.
const (
	warmPasses = 1
	minPasses  = 2
	minSetups  = 15
)

// runStats summarizes the passes of one phase.
type runStats struct {
	warm      []float64 // wall seconds of the warm-up passes
	passes    []passResult
	setups    []float64
	attempted int
	failed    int
	errs      []string
}

func (s *runStats) fail(msg string) {
	s.failed++
	s.errs = append(s.errs, msg)
}

// runPhase runs warm warm-up passes, then passes until the budget of
// wall time, warm-up and checks included, is spent (at least min kept
// passes), then tops set-up samples up to minSetups. Warm-up passes are
// checked like the rest but kept in no figure. Every pass's digest must
// equal the first's: the simulator is deterministic in its seed. Each
// pass and each set-up sample starts from a collected heap with freed
// memory returned to the OS, so what came before is not charged to it.
func runPhase(b bench, e *env, budget time.Duration, warm, min int) *runStats {
	s := &runStats{}
	start := time.Now()
	var ref string
	for n := 0; n < warm+min || time.Since(start) < budget; n++ {
		debug.FreeOSMemory()
		p, err := b.pass(e)
		s.attempted += p.Attempted
		s.failed += p.Failed
		if err != nil {
			// A pass that counted its own failed check returns that
			// check's error too; count the error only when it did not.
			if p.Failed == 0 {
				s.attempted++
				s.failed++
			}
			s.errs = append(s.errs, err.Error())
			break
		}
		if n == 0 {
			ref = p.Digest
		} else if p.Digest != ref {
			s.attempted++
			s.fail(fmt.Sprintf("pass %d digest %s differs from pass 0 digest %s", n, p.Digest, ref))
		}
		if n < warm {
			s.warm = append(s.warm, p.Wall.Seconds())
			continue
		}
		s.passes = append(s.passes, p)
		s.setups = append(s.setups, p.Setup.Seconds())
	}
	for len(s.setups) < minSetups && s.failed == 0 {
		debug.FreeOSMemory()
		d, err := b.setupOnly(e)
		if err != nil {
			s.attempted++
			s.fail(err.Error())
			break
		}
		s.setups = append(s.setups, d.Seconds())
	}
	return s
}

// medianOf returns the median of f over the passes.
func (s *runStats) medianOf(f func(p passResult) float64) float64 {
	xs := make([]float64, len(s.passes))
	for i, p := range s.passes {
		xs[i] = f(p)
	}
	return median(xs)
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before the result: what the result was measured
// on and the workload's own figures.
type report struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Trace    int                `json:"trace"`
	Host     hostInfo           `json:"host"`
	Passes   int                `json:"passes"`
	Warmup   []float64          `json:"warmup_wall_s"`
	Walls    []float64          `json:"pass_wall_s"`
	RSS      []float64          `json:"pass_rss_mb"`
	Setups   []float64          `json:"setup_samples_s"`
	Digest   string             `json:"digest"`
	Golden   string             `json:"golden"`
	Detail   map[string]float64 `json:"detail"`
	Layers   []layerRow         `json:"layers,omitempty"`
	Errors   []string           `json:"errors,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: table4, multicore, crash or serve")
		seed    = flag.Uint64("seed", 0, "workload seed; 0 reproduces the published artifacts")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		traced  = flag.Int("trace", 0, "1 prints per-layer metrics from a separate traced run")
	)
	flag.Parse()
	b, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload table4|multicore|crash|serve --seed N --seconds S --trace 0|1")
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		return 2
	}
	scratch, err := filepath.Abs(filepath.Join(".bench_build", "run-"+strconv.Itoa(os.Getpid())))
	if err == nil {
		err = os.MkdirAll(scratch, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	e := &env{
		ctx:     context.Background(),
		cfgSeed: baseSeed + *seed,
		workers: runtime.NumCPU(),
		dir:     scratch,
	}
	if err := b.prepare(e); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: preparing inputs:", err)
		return 1
	}
	budget := time.Duration(*seconds * float64(time.Second))
	rep := report{Workload: *name, Seed: *seed, Trace: *traced, Host: fingerprint()}
	var res result
	if *traced == 0 {
		s := runPhase(b, e, budget, warmPasses, minPasses)
		rep.fill(s, *name)
		res = endToEnd(s)
	} else {
		// The untraced half gives the baseline the tracing overhead is
		// measured against; the traced half, which the untraced half
		// has warmed up, gives the layer figures.
		plain := runPhase(b, e, budget/2, warmPasses, minPasses)
		e.rec = newRecorder()
		tr := runPhase(b, e, budget/2, 0, 1)
		if len(plain.passes) > 0 && len(tr.passes) > 0 && plain.passes[0].Digest != tr.passes[0].Digest {
			tr.attempted++
			tr.fail("the traced passes' digest differs from the untraced passes'")
		}
		rep.fill(tr, *name)
		rep.Errors = append(plain.errs, tr.errs...)
		rep.Layers = layerRows(e.prof.folded, max(len(tr.passes), 1))
		res = perLayer(plain, tr, e)
		if err := os.MkdirAll(filepath.Join(".bench_build", "spans"), 0o755); err == nil {
			if err := e.rec.WriteFile(filepath.Join(".bench_build", "spans", *name+".jsonl")); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			}
		}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	out, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// fill records the phase's digest, golden comparison and detail
// figures, counting a golden mismatch as a failure.
func (r *report) fill(s *runStats, name string) {
	r.Passes = len(s.passes)
	r.Warmup = s.warm
	for _, p := range s.passes {
		r.Walls = append(r.Walls, p.Wall.Seconds())
		r.RSS = append(r.RSS, median(p.RSS)/(1<<20))
	}
	r.Setups = s.setups
	r.Errors = s.errs
	if len(s.passes) > 0 {
		r.Digest = s.passes[0].Digest
		r.Golden = "not pinned at this seed"
		if r.Seed == 0 {
			want := goldenDigests[name]
			if r.Digest == want {
				r.Golden = "match"
			} else {
				r.Golden = "MISMATCH: want " + want
				s.attempted++
				s.fail("digest " + r.Digest + " differs from the golden digest " + want)
			}
		}
	}
	r.Detail = details(s)
}

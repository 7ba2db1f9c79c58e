package main

import (
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// layerSpec declares one layer of the host-time taxonomy: the packages
// whose CPU samples it owns, the end-to-end metrics a change to it
// should move, and the workload that exercises it against the one that
// bypasses it. The table is data so that a change claiming a gain on a
// layer can be read against the prediction made here before the change.
type layerSpec struct {
	// Name prefixes the layer's metrics (mem → mem.self_s).
	Name string
	// Packages are import paths owned by the layer; each also owns
	// every package below it ("crypto" owns "crypto/sha512"). The
	// longest matching path wins across the whole table.
	Packages []string
	// Moves names the end-to-end metrics a change to the layer should
	// move; empty means a change should move none.
	Moves []string
	// Main is the workload that exercises the layer most.
	Main string
	// Bypass is a workload on which the layer does little or nothing,
	// so a change to it should leave that workload unchanged.
	Bypass string
}

// runtimeLayer and otherLayer name the two layers the fold treats
// specially: runtime frames are the Go runtime's own work, and other
// collects samples no declared layer owns.
const (
	runtimeLayer = "runtime"
	benchLayer   = "bench"
	otherLayer   = "other"
)

// layers is the taxonomy. The secpb packages not listed (addr, config,
// crashpoint, stats, energy) are small helpers whose samples land in
// other.
var layers = []layerSpec{
	{Name: "workload", Packages: []string{"secpb/internal/workload", "secpb/internal/xrand"},
		Moves: []string{"sim_ops_per_s"}, Main: "table4", Bypass: "serve"},
	{Name: "engine", Packages: []string{"secpb/internal/engine"},
		Moves: []string{"wall_s", "sim_ops_per_s"}, Main: "table4", Bypass: "crash"},
	{Name: "mem", Packages: []string{"secpb/internal/mem"},
		Moves: []string{"wall_s", "sim_ops_per_s"}, Main: "table4", Bypass: "crash"},
	{Name: "pb", Packages: []string{"secpb/internal/pb", "secpb/internal/core"},
		Moves: []string{"wall_s", "sim_ops_per_s"}, Main: "table4", Bypass: "crash"},
	{Name: "crypto", Packages: []string{"secpb/internal/crypto", "crypto", "vendor/golang.org/x/crypto"},
		Moves: []string{"wall_s"}, Main: "crash", Bypass: "table4"},
	{Name: "bmt", Packages: []string{"secpb/internal/bmt"},
		Moves: []string{"wall_s"}, Main: "crash", Bypass: "table4"},
	{Name: "nvm", Packages: []string{"secpb/internal/nvm", "secpb/internal/meta", "secpb/internal/ptable"},
		Moves: []string{"wall_s", "sim_ops_per_s"}, Main: "table4", Bypass: "crash"},
	{Name: "coherence", Packages: []string{"secpb/internal/coherence"},
		Moves: []string{"wall_s"}, Main: "multicore", Bypass: "table4"},
	{Name: "runner", Packages: []string{"secpb/internal/runner"},
		Moves: []string{"wall_s"}, Main: "multicore", Bypass: "serve"},
	{Name: "harness", Packages: []string{"secpb/internal/harness"},
		Moves: []string{"setup_s", "wall_s"}, Main: "table4", Bypass: "crash"},
	{Name: "crashsim", Packages: []string{"secpb/internal/crashsim"},
		Moves: []string{"wall_s"}, Main: "crash", Bypass: "table4"},
	{Name: "recovery", Packages: []string{"secpb/internal/recovery"},
		Moves: []string{"wall_s"}, Main: "crash", Bypass: "table4"},
	{Name: "service", Packages: []string{"secpb/internal/service"},
		Moves: []string{"wall_s", "sim_ops_per_s"}, Main: "serve", Bypass: "table4"},
	{Name: "trace", Packages: []string{"secpb/internal/trace"},
		Moves: []string{"wall_s"}, Main: "serve", Bypass: "table4"},
	{Name: runtimeLayer, Packages: []string{"runtime", "internal/runtime", "internal/abi", "internal/bytealg", "internal/chacha8rand"},
		Moves: []string{"wall_s", "rss_p50_mb"}, Main: "crash", Bypass: ""},
	// The benchmark's own code and its recorders: time here is the
	// price of measuring, not program work.
	{Name: benchLayer, Packages: []string{"main", "runtime/pprof", "runtime/metrics"}},
}

// layerNames lists every layer the fold can report, other last.
func layerNames() []string {
	out := make([]string, 0, len(layers)+1)
	for _, l := range layers {
		out = append(out, l.Name)
	}
	return append(out, otherLayer)
}

// layerRow is one layer's folded self time beside the prediction the
// taxonomy makes for it, as printed by a traced run.
type layerRow struct {
	Layer  string   `json:"layer"`
	SelfS  float64  `json:"self_s"`
	Share  float64  `json:"share"`
	Moves  []string `json:"moves,omitempty"`
	Main   string   `json:"main,omitempty"`
	Bypass string   `json:"bypass,omitempty"`
}

// layerRows lists every layer's CPU seconds per pass and share of the
// profile.
func layerRows(f foldResult, passes int) []layerRow {
	rows := make([]layerRow, 0, len(layers)+1)
	add := func(l layerSpec) {
		v := float64(f.Self[l.Name])
		rows = append(rows, layerRow{l.Name, v / 1e9 / float64(passes), ratio(v, float64(f.Total)), l.Moves, l.Main, l.Bypass})
	}
	for _, l := range layers {
		add(l)
	}
	add(layerSpec{Name: otherLayer})
	return rows
}

// packageOf extracts the import path from a symbol name such as
// "secpb/internal/mem.(*Cache).Fill" or "runner.Map[...].func1".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// ownerOf returns the layer owning pkg by longest matching path, or
// "" when no layer owns it.
func ownerOf(pkg string) string {
	best, bestLen := "", -1
	for _, l := range layers {
		for _, p := range l.Packages {
			if (pkg == p || strings.HasPrefix(pkg, p+"/")) && len(p) > bestLen {
				best, bestLen = l.Name, len(p)
			}
		}
	}
	return best
}

// asyncPreempt is the runtime's preemption trampoline. A sample whose
// leaf it is was taken while the runtime was stopping the goroutine
// below it, so the time belongs to that goroutine's code.
const asyncPreempt = "runtime.asyncPreempt"

// sample is one CPU profile sample: its call stack with the leaf first,
// and its weight.
type sample struct {
	Stack []string
	Value int64
}

// foldResult is a profile folded into the layer taxonomy.
type foldResult struct {
	Self         map[string]int64 // per layer, in the profile's unit
	Total        int64
	AsyncPreempt int64 // weight of samples whose leaf is asyncPreempt
}

// attribute returns the layer a sample is charged to:
//   - a leaf of runtime.asyncPreempt is skipped, with every runtime
//     frame under it, so the sample goes to the first non-runtime
//     caller (to runtime when there is none);
//   - a leaf in a package no layer owns (the standard library outside
//     crypto and the runtime) goes to the first caller a layer other
//     than the runtime owns, or to other when there is none.
func attribute(stack []string) string {
	i := 0
	if len(stack) > 0 && stack[0] == asyncPreempt {
		for i < len(stack) && ownerOf(packageOf(stack[i])) == runtimeLayer {
			i++
		}
		if i == len(stack) {
			return runtimeLayer
		}
	}
	if i == len(stack) {
		return otherLayer
	}
	if l := ownerOf(packageOf(stack[i])); l != "" {
		return l
	}
	for _, fn := range stack[i+1:] {
		if l := ownerOf(packageOf(fn)); l != "" && l != runtimeLayer {
			return l
		}
	}
	return otherLayer
}

// fold charges every sample to one layer, so the per-layer self times
// sum to the profile total.
func fold(samples []sample) foldResult {
	r := foldResult{Self: map[string]int64{}}
	for _, s := range samples {
		r.Self[attribute(s.Stack)] += s.Value
		r.Total += s.Value
		if len(s.Stack) > 0 && s.Stack[0] == asyncPreempt {
			r.AsyncPreempt += s.Value
		}
	}
	return r
}

// add accumulates o into r.
func (r *foldResult) add(o foldResult) {
	if r.Self == nil {
		r.Self = map[string]int64{}
	}
	for k, v := range o.Self {
		r.Self[k] += v
	}
	r.Total += o.Total
	r.AsyncPreempt += o.AsyncPreempt
}

// parseCPUProfile reads a CPU profile written by runtime/pprof into
// samples weighted by CPU nanoseconds, through `go tool pprof -raw`.
func parseCPUProfile(path string) ([]sample, error) {
	text, err := exec.Command("go", "tool", "pprof", "-raw", "-symbolize=none", path).Output()
	if err != nil {
		return nil, fmt.Errorf("cpu profile: go tool pprof: %w", err)
	}
	return parseRawProfile(string(text))
}

// parseRawProfile folds the text `go tool pprof -raw` prints: under
// "Samples:" a header naming each value column, then one line per
// sample of its values, a colon and its location IDs, leaf first; under
// "Locations" one line per location, "ID: address [M=mapping] function
// file:line:col s=start", followed by a line of the same form without
// "ID: address" for each caller inlined into it.
func parseRawProfile(text string) ([]sample, error) {
	type rawSample struct {
		locs  []string
		value int64
	}
	var (
		section string
		col     = -1 // the cpu/nanoseconds value column
		raw     []rawSample
		funcs   = map[string][]string{} // location ID → functions, leaf first
		loc     string
	)
	for _, line := range strings.Split(text, "\n") {
		switch {
		case line == "Samples:" || line == "Locations" || line == "Mappings":
			section = line
		case section == "Samples:" && col < 0:
			for i, f := range strings.Fields(line) {
				if strings.HasPrefix(f, "cpu/") {
					col = i
				}
			}
			if col < 0 {
				return nil, fmt.Errorf("cpu profile: no cpu value in %q", line)
			}
		case section == "Samples:":
			vals, ids, _ := strings.Cut(line, ":")
			vs := strings.Fields(vals)
			if len(vs) <= col {
				return nil, fmt.Errorf("cpu profile: sample line %q", line)
			}
			v, err := strconv.ParseInt(vs[col], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("cpu profile: sample line %q: %w", line, err)
			}
			raw = append(raw, rawSample{strings.Fields(ids), v})
		case section == "Locations":
			rest := strings.TrimLeft(line, " ")
			if id, after, ok := strings.Cut(rest, ": 0x"); ok && !strings.Contains(id, " ") {
				loc = id
				_, rest, _ = strings.Cut(after, " ")
				rest = strings.TrimPrefix(rest, "[F] ")
				if strings.HasPrefix(rest, "M=") {
					_, rest, _ = strings.Cut(rest, " ")
				}
			}
			// The function name may hold spaces (generic shapes); the
			// file and start line after it do not.
			if i := strings.LastIndex(rest, " s="); i >= 0 {
				rest = rest[:i]
				if j := strings.LastIndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
			}
			funcs[loc] = append(funcs[loc], rest)
		}
	}
	if col < 0 {
		return nil, errors.New("cpu profile: no samples section")
	}
	samples := make([]sample, 0, len(raw))
	for _, s := range raw {
		var stack []string
		for _, l := range s.locs {
			stack = append(stack, funcs[l]...)
		}
		samples = append(samples, sample{Stack: stack, Value: s.value})
	}
	return samples, nil
}
